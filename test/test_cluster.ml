(* Tests for the cluster layer: conservative-lookahead lockstep sync,
   typed cross-machine links, the frontend/load-balancer workload, the
   cross-machine causality invariant, and the -j independence of fleet
   runs (results, traces, metrics and check verdicts must be
   byte-identical at any worker-domain count). *)

module Engine = Vessel_engine
module Sim = Engine.Sim
module Pool = Engine.Pool
module Cluster = Vessel_cluster.Cluster
module Net = Vessel_cluster.Net
module Obs = Vessel_obs
module W = Vessel_workloads
module S = Vessel_sched
module E = Vessel_experiments
module Stats = Vessel_stats
module Check = Vessel_check

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cluster + Net basics *)

let test_link_latency_floor () =
  let c = Cluster.create ~machines:2 ~lookahead:1_000 () in
  Alcotest.check_raises "latency below lookahead rejected"
    (Invalid_argument
       "Net.link l: latency 999 below cluster lookahead 1000 breaks causality")
    (fun () -> ignore (Net.link ~name:"l" ~latency:999 c));
  ignore (Net.link ~latency:1_000 c)

let test_net_delivery () =
  let c = Cluster.create ~machines:2 ~lookahead:1_000 () in
  let link = Net.link ~latency:1_500 c in
  let got = ref [] in
  Net.on_receive link ~machine:1 (fun ~now ~src payload ->
      got := (now, src, payload) :: !got);
  (* Sends happen from within machine 0's own events. *)
  ignore
    (Sim.schedule (Cluster.sim c 0) ~at:500 (fun _ ->
         Net.send link ~src:0 ~dst:1 "a"));
  ignore
    (Sim.schedule (Cluster.sim c 0) ~at:2_200 (fun _ ->
         Net.send link ~src:0 ~dst:1 "b"));
  Cluster.run_until c 10_000;
  Alcotest.(check (list (triple int int string)))
    "arrivals at send+latency, in order"
    [ (500 + 1_500, 0, "a"); (2_200 + 1_500, 0, "b") ]
    (List.rev !got);
  check_int "sent" 2 (Net.sent link);
  check_int "delivered" 2 (Net.delivered link);
  check_int "barrier reached horizon" 10_000 (Cluster.now c);
  check_int "epochs = horizon/lookahead" 10 (Cluster.epochs c)

let test_send_needs_receiver () =
  let c = Cluster.create ~machines:2 ~lookahead:1_000 () in
  let link = Net.link c in
  Alcotest.check_raises "no receiver"
    (Invalid_argument "Net.send: destination has no receive handler")
    (fun () -> Net.send link ~src:0 ~dst:1 ())

(* Delivery order: every destination's receive sequence must equal a
   serial barrier-flush reference — at each barrier, links in creation
   order, senders in machine order, sends in send order, each message
   scheduled into its destination at send + latency (ties in schedule
   order) — at any domain count, with Net.delivered = Net.sent whenever
   run_until returns. *)

let order_la = 1_000
let order_lats = [| 1_000; 2_300 |]
let order_send_end = 6_000

(* One send spec: at [at] on [src], [count] messages over link [lk] to
   [dst], back to back at the same instant. *)
type order_send = { src : int; at : int; lk : int; dst : int; count : int }

let order_case_gen =
  let open QCheck.Gen in
  let* n = int_range 2 6 in
  let spec src =
    let* at = map (fun k -> k * 250) (int_bound (order_send_end / 250)) in
    let* lk = int_bound 1 in
    let* dst = int_bound (n - 1) in
    let* count = int_range 1 3 in
    return { src; at; lk; dst; count }
  in
  let* sends =
    flatten_l
      (List.init n (fun src -> list_size (int_range 1 6) (spec src)))
  in
  let* cut = int_range 1 (order_send_end - 1) in
  return (n, List.concat sends, cut)

let order_print (n, sends, cut) =
  Printf.sprintf "machines=%d cut=%d sends=[%s]" n cut
    (String.concat "; "
       (List.map
          (fun s ->
            Printf.sprintf "%d@%d l%d ->%d x%d" s.src s.at s.lk s.dst s.count)
          sends))

let order_horizons cut = [ cut; order_send_end; 3 * order_send_end ]

(* Payload = global message index: spec order, then position in burst. *)
let order_messages sends =
  let next = ref 0 in
  List.concat_map
    (fun s ->
      List.init s.count (fun _ ->
          let id = !next in
          incr next;
          (s, id)))
    sends

(* Reference: per destination, (time, src, payload) in receive order. *)
let order_reference (n, sends, cut) =
  let barriers =
    (* Epoch ends, in order, as run_until produces them per horizon. *)
    let b = ref 0 and acc = ref [] in
    List.iter
      (fun h ->
        while !b < h do
          b := min (!b + order_la) h;
          acc := !b :: !acc
        done)
      (order_horizons cut);
    Array.of_list (List.rev !acc)
  in
  let epoch_of at =
    let rec go i = if barriers.(i) >= at then i else go (i + 1) in
    go 0
  in
  let msgs = order_messages sends in
  (* A sender executes its sends in (time, schedule order). *)
  let send_seq =
    List.stable_sort (fun ((a : order_send), _) (b, _) -> compare a.at b.at) msgs
    |> List.mapi (fun seq (s, id) -> (s, id, seq))
  in
  let flush_key (s, _, seq) = (epoch_of s.at, s.lk, s.src, seq) in
  let flushed =
    List.stable_sort (fun a b -> compare (flush_key a) (flush_key b)) send_seq
  in
  Array.init n (fun dst ->
      List.filter (fun (s, _, _) -> s.dst = dst) flushed
      |> List.map (fun (s, id, _) -> (s.at + order_lats.(s.lk), s.src, id))
      |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b))

let order_run ~domains (n, sends, cut) =
  let c = Cluster.create ~seed:7 ~machines:n ~lookahead:order_la () in
  let links =
    Array.mapi
      (fun i latency -> Net.link ~name:(Printf.sprintf "l%d" i) ~latency c)
      order_lats
  in
  let got = Array.make n [] in
  Array.iter
    (fun link ->
      for m = 0 to n - 1 do
        Net.on_receive link ~machine:m (fun ~now ~src id ->
            got.(m) <- (now, src, id) :: got.(m))
      done)
    links;
  List.iter
    (fun ((s : order_send), id) ->
      ignore
        (Sim.schedule (Cluster.sim c s.src) ~at:s.at (fun _ ->
             Net.send links.(s.lk) ~src:s.src ~dst:s.dst id)))
    (order_messages sends);
  let balanced =
    List.for_all
      (fun h ->
        Cluster.run_until ~domains c h;
        Array.for_all (fun l -> Net.delivered l = Net.sent l) links)
      (order_horizons cut)
  in
  (balanced, Array.map List.rev got)

let delivery_order_property =
  QCheck.Test.make ~name:"receive order == serial flush, any -j" ~count:40
    (QCheck.make ~print:order_print order_case_gen)
    (fun case ->
      let reference = order_reference case in
      let ok1, got1 = order_run ~domains:1 case in
      let ok4, got4 = order_run ~domains:4 case in
      ok1 && ok4 && got1 = reference && got4 = reference)

(* ------------------------------------------------------------------ *)
(* Differential: a 1-machine cluster must reproduce a plain single-Sim
   run exactly — the lockstep epochs are pure bookkeeping. *)

let colocation_counts ~run ~sim ~sys =
  let gen = W.Memcached.make ~sim ~sys ~app_id:1 ~workers:2 () in
  let horizon = 5_000_000 in
  let rate = 0.5 *. 2. /. W.Memcached.mean_service_ns *. 1e9 in
  sys.S.Sched_intf.start ();
  W.Openloop.start gen ~rate_rps:rate ~until:horizon;
  run horizon;
  sys.S.Sched_intf.stop ();
  ( W.Openloop.offered gen,
    W.Openloop.served gen,
    Stats.Histogram.percentile (W.Openloop.latencies gen) 99. )

let test_single_machine_cluster_differential () =
  let plain =
    let b = E.Runner.build ~seed:42 ~cores:2 E.Runner.Vessel in
    colocation_counts
      ~run:(fun h -> Sim.run_until b.E.Runner.sim h)
      ~sim:b.E.Runner.sim ~sys:b.E.Runner.sys
  in
  let clustered =
    let c =
      Cluster.create ~machine_seeds:[ 42 ] ~machines:1 ~lookahead:20_000 ()
    in
    let b = E.Runner.build ~sim:(Cluster.sim c 0) ~cores:2 E.Runner.Vessel in
    colocation_counts
      ~run:(fun h -> Cluster.run_until c h)
      ~sim:b.E.Runner.sim ~sys:b.E.Runner.sys
  in
  Alcotest.(check (triple int int int))
    "plain Sim run == 1-machine Cluster run" plain clustered

(* ------------------------------------------------------------------ *)
(* A small fleet used by several tests: 3 VESSEL backends x 2 cores
   behind a frontend, memcached-class service. *)

let build_fleet ?(policy = W.Frontend.Least_loaded) ~seed () =
  let cluster = Cluster.create ~seed ~machines:4 ~lookahead:20_000 () in
  let builds =
    List.init 3 (fun i ->
        (i + 1, E.Runner.build ~sim:(Cluster.sim cluster (i + 1)) ~cores:2 E.Runner.Vessel))
  in
  let fe =
    W.Frontend.create ~cluster ~frontend:0 ~policy
      ~service:W.Memcached.service_dist ~workers:2
      ~backends:(List.map (fun (m, b) -> (m, b.E.Runner.sys)) builds)
      ()
  in
  (cluster, builds, fe)

let fleet_rate = 0.5 *. 6. /. W.Memcached.mean_service_ns *. 1e9
let fleet_horizon = 2_000_000

let run_fleet ?policy ~domains ~seed () =
  let cluster, builds, fe = build_fleet ?policy ~seed () in
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
  W.Frontend.start fe ~rate_rps:fleet_rate ~until:fleet_horizon;
  Cluster.run_until ~domains cluster fleet_horizon;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
  ( ( W.Frontend.offered fe,
      W.Frontend.served fe,
      W.Frontend.dropped fe,
      Stats.Histogram.percentile (W.Frontend.latencies fe) 99. ),
    List.init 3 (fun i -> W.Frontend.served_by fe i) )

(* The qcheck property behind the fleet's headline claim: one domain per
   machine is an implementation detail — every observable (counts,
   per-shard routing, tail latency) is identical at -j 1 and -j 4. *)
let fleet_jobs_property =
  QCheck.Test.make ~count:4 ~name:"fleet results identical at -j 1 and -j 4"
    QCheck.(int_range 1 1_000)
    (fun seed ->
      run_fleet ~domains:1 ~seed () = run_fleet ~domains:4 ~seed ())

(* Trace + metrics files of a traced fleet run are byte-identical at
   -j 1 and -j 4 (the collector-unit-per-machine path). *)
let test_fleet_trace_identical_across_jobs () =
  Fun.protect
    ~finally:(fun () -> Obs.Collector.reset ())
    (fun () ->
      let run domains =
        Obs.Collector.reset ();
        Obs.Collector.configure ~trace:true ~metrics:true ();
        ignore (run_fleet ~domains ~seed:7 ());
        let bt = Buffer.create 65536 and bm = Buffer.create 4096 in
        Obs.Collector.write_trace (Buffer.add_string bt);
        Obs.Collector.write_metrics (Buffer.add_string bm);
        (Buffer.contents bt, Buffer.contents bm)
      in
      let t1, m1 = run 1 in
      let t4, m4 = run 4 in
      check_bool "trace byte-identical" true (String.equal t1 t4);
      check_bool "metrics byte-identical" true (String.equal m1 m4);
      check_bool "trace non-trivial" true (String.length t1 > 1_000))

(* Check verdicts for the fleet scenario are -j independent too. *)
let test_fleet_check_verdicts_across_jobs () =
  let sweep domains =
    Check.Harness.run_sweep ~domains ~seeds:[ 42; 43 ]
      ~profiles:[ Check.Fault.Chaos ]
      ~scenarios:[ Check.Harness.Fleet_class ]
      ()
  in
  let v1 = sweep 1 and v4 = sweep 4 in
  check_bool "verdicts identical at -j 1 and -j 4" true (v1 = v4);
  List.iter
    (fun v ->
      check_int "no violations under chaos" 0
        v.Check.Harness.total_violations;
      check_bool "checker saw events" true (v.Check.Harness.events > 0))
    v1

(* ------------------------------------------------------------------ *)
(* Routing policies *)

let test_down_backend_gets_nothing () =
  List.iter
    (fun policy ->
      let cluster, builds, fe = build_fleet ~policy ~seed:11 () in
      W.Frontend.set_backend_up fe 1 false;
      List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
      W.Frontend.start fe ~rate_rps:fleet_rate ~until:fleet_horizon;
      Cluster.run_until cluster fleet_horizon;
      List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
      check_int
        (W.Frontend.policy_name policy ^ ": down backend idle")
        0
        (W.Frontend.dispatched fe 1);
      check_bool
        (W.Frontend.policy_name policy ^ ": traffic rerouted, not dropped")
        true
        (W.Frontend.dropped fe = 0 && W.Frontend.served fe > 0))
    W.Frontend.all_policies

let test_all_down_drops () =
  let cluster, builds, fe = build_fleet ~seed:11 () in
  for i = 0 to 2 do
    W.Frontend.set_backend_up fe i false
  done;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
  W.Frontend.start fe ~rate_rps:fleet_rate ~until:fleet_horizon;
  Cluster.run_until cluster fleet_horizon;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
  check_bool "arrivals happened" true (W.Frontend.offered fe > 0);
  check_int "every arrival dropped" (W.Frontend.offered fe)
    (W.Frontend.dropped fe);
  check_int "nothing served" 0 (W.Frontend.served fe)

let test_rolling_restart_no_drops () =
  let cluster, builds, fe = build_fleet ~policy:W.Frontend.Round_robin ~seed:5 () in
  (* One backend down at a time: 3 slots of 500us, down for 250us each. *)
  W.Frontend.schedule_rolling_restart fe ~start:200_000 ~gap:500_000
    ~down_for:250_000;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
  W.Frontend.start fe ~rate_rps:fleet_rate ~until:fleet_horizon;
  Cluster.run_until cluster fleet_horizon;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
  check_int "never all down => no drops" 0 (W.Frontend.dropped fe);
  check_bool "progress through the roll" true (W.Frontend.served fe > 0);
  List.iter
    (fun i ->
      check_bool
        (Printf.sprintf "backend %d served some" i)
        true
        (W.Frontend.served_by fe i > 0))
    [ 0; 1; 2 ]

let test_drain_window_boundaries () =
  (* A restart's drain window, observed at its exact boundaries: the
     instant a backend goes down its dispatch counter freezes, its
     in-flight requests drain to zero well before it returns, and the
     rest of the fleet keeps serving throughout the window. *)
  let cluster, builds, fe = build_fleet ~policy:W.Frontend.Round_robin ~seed:7 () in
  let fe_sim = Cluster.sim cluster 0 in
  let at_down = ref (-1, -1) and at_up = ref (-1, -1, -1) in
  ignore
    (Sim.schedule fe_sim ~at:500_000 (fun _ ->
         W.Frontend.set_backend_up fe 1 false;
         at_down := (W.Frontend.dispatched fe 1, W.Frontend.served fe)));
  ignore
    (Sim.schedule fe_sim ~at:1_200_000 (fun _ ->
         at_up :=
           ( W.Frontend.dispatched fe 1,
             W.Frontend.inflight fe 1,
             W.Frontend.served fe );
         W.Frontend.set_backend_up fe 1 true));
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
  W.Frontend.start fe ~rate_rps:fleet_rate ~until:fleet_horizon;
  Cluster.run_until cluster fleet_horizon;
  List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
  let down_dispatched, down_served = !at_down in
  let up_dispatched, up_inflight, up_served = !at_up in
  check_bool "traffic hit backend 1 before the window" true (down_dispatched > 0);
  check_int "no dispatches while down" down_dispatched up_dispatched;
  check_int "inflight drained to zero by end of window" 0 up_inflight;
  check_bool "fleet progressed during the window" true (up_served > down_served);
  check_bool "backend 1 resumed after the window" true
    (W.Frontend.dispatched fe 1 > down_dispatched);
  check_int "nothing dropped across the roll" 0 (W.Frontend.dropped fe)

let test_consistent_hash_deterministic () =
  let run () =
    let cluster, builds, fe =
      build_fleet ~policy:W.Frontend.Consistent_hash ~seed:3 ()
    in
    List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.start ()) builds;
    W.Frontend.start fe ~rate_rps:fleet_rate ~until:fleet_horizon;
    Cluster.run_until cluster fleet_horizon;
    List.iter (fun (_, b) -> b.E.Runner.sys.S.Sched_intf.stop ()) builds;
    List.init 3 (fun i -> W.Frontend.dispatched fe i)
  in
  let a = run () and b = run () in
  Alcotest.(check (list int)) "same seed => same placement" a b;
  check_bool "hashing actually spreads keys" true
    (List.for_all (fun d -> d > 0) a)

(* ------------------------------------------------------------------ *)
(* Causality invariant: synthetic event streams *)

let inst ~ts name args =
  Obs.Event.Instant
    {
      ts;
      track = Obs.Track.Engine;
      name;
      args = List.map (fun (k, v) -> (k, Obs.Event.Int v)) args;
    }

let test_causality_clean_run () =
  let c = Check.Checker.create () in
  Check.Checker.handle c
    (inst ~ts:0 Obs.Tag.cluster_epoch [ ("until", 1_000); ("lookahead", 1_000) ]);
  Check.Checker.handle c
    (inst ~ts:1_000 Obs.Tag.cluster_epoch
       [ ("until", 2_000); ("lookahead", 1_000) ]);
  (* Flushed at the 2000 barrier: sent mid-epoch, arrives beyond it. *)
  Check.Checker.handle c
    (inst ~ts:2_000 Obs.Tag.cluster_deliver
       [ ("sent", 1_500); ("arrival", 2_500) ]);
  check_bool "conforming stream is clean" true (Check.Checker.clean c)

let test_causality_detects_violations () =
  let violations_of events =
    let c = Check.Checker.create () in
    Check.Checker.handle c
      (inst ~ts:0 Obs.Tag.cluster_epoch
         [ ("until", 1_000); ("lookahead", 1_000) ]);
    List.iter (Check.Checker.handle c) events;
    Check.Checker.total_violations c
  in
  check_int "delivery into the executed past" 1
    (violations_of
       [
         inst ~ts:1_000 Obs.Tag.cluster_deliver
           [ ("sent", 900 - 1_000); ("arrival", 900) ];
       ]);
  check_int "link latency below lookahead" 1
    (violations_of
       [
         inst ~ts:1_000 Obs.Tag.cluster_deliver
           [ ("sent", 1_200); ("arrival", 1_700) ];
       ]);
  check_int "epoch stride overruns lookahead" 1
    (violations_of
       [
         inst ~ts:1_000 Obs.Tag.cluster_epoch
           [ ("until", 3_000); ("lookahead", 1_000) ];
       ])

(* ------------------------------------------------------------------ *)
(* Pool re-entrancy: a job running on the pool (worker domain or the
   participating caller) may itself call Pool.map — the nested map runs
   sequentially instead of deadlocking on the pool lock. *)

let test_pool_nested_map () =
  let inner x = Pool.map ~domains:2 (fun y -> (x * 10) + y) [ 0; 1; 2 ] in
  (* 5 outer jobs over 2 domains: the caller participates, so both the
     worker-domain and caller-domain nesting paths are exercised. *)
  let got = Pool.map ~domains:2 inner [ 1; 2; 3; 4; 5 ] in
  Alcotest.(check (list (list int)))
    "nested map completes with sequential semantics"
    [
      [ 10; 11; 12 ];
      [ 20; 21; 22 ];
      [ 30; 31; 32 ];
      [ 40; 41; 42 ];
      [ 50; 51; 52 ];
    ]
    got

let suite =
  [
    ( "cluster.net",
      [
        Alcotest.test_case "latency floor" `Quick test_link_latency_floor;
        Alcotest.test_case "delivery" `Quick test_net_delivery;
        Alcotest.test_case "send needs receiver" `Quick
          test_send_needs_receiver;
        QCheck_alcotest.to_alcotest delivery_order_property;
      ] );
    ( "cluster.differential",
      [
        Alcotest.test_case "1-machine cluster == plain sim" `Quick
          test_single_machine_cluster_differential;
      ] );
    ( "cluster.fleet",
      [
        QCheck_alcotest.to_alcotest fleet_jobs_property;
        Alcotest.test_case "trace/metrics identical at -j 1 and -j 4" `Slow
          test_fleet_trace_identical_across_jobs;
        Alcotest.test_case "check verdicts identical at -j 1 and -j 4" `Slow
          test_fleet_check_verdicts_across_jobs;
      ] );
    ( "cluster.routing",
      [
        Alcotest.test_case "down backend gets nothing" `Quick
          test_down_backend_gets_nothing;
        Alcotest.test_case "all down drops" `Quick test_all_down_drops;
        Alcotest.test_case "rolling restart" `Quick
          test_rolling_restart_no_drops;
        Alcotest.test_case "drain window boundaries" `Quick
          test_drain_window_boundaries;
        Alcotest.test_case "consistent hash deterministic" `Quick
          test_consistent_hash_deterministic;
      ] );
    ( "cluster.causality",
      [
        Alcotest.test_case "clean run" `Quick test_causality_clean_run;
        Alcotest.test_case "detects violations" `Quick
          test_causality_detects_violations;
      ] );
    ( "cluster.pool",
      [ Alcotest.test_case "nested map" `Quick test_pool_nested_map ] );
  ]
