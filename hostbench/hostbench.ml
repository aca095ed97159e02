(* Host-time benchmark of the simulator. One process runs one batch of a
   named workload, or the per-layer drivers, and reports JSON lines on
   stdout; run.py spawns it, times it from outside, checks the outputs
   and aggregates.

     hostbench.exe run --workload W --seed S [--traced]
     hostbench.exe reference --workload W --seed S   (batch at -j 1)
     hostbench.exe print --workload W --seed S [--jobs N]  (vessel-sim's text)
     hostbench.exe layers

   [run] builds the workload's first simulated systems (set-up, three
   times), prints a READY line with the build times, then runs the whole batch at 2 worker domains through
   the libraries' public entry points and prints one result line: host
   wall and CPU time of the batch, simulated events, GC counters, one
   digest per sweep point and the benchmark's own spans. [--traced]
   turns the program's probes on into per-domain counting sinks and
   metrics registries first, so the result also carries every probe
   name's count and the merged metrics counters. *)

open Vessel_experiments
module Sim = Vessel_engine.Sim
module Pool = Vessel_engine.Pool
module Eq = Vessel_engine.Event_queue
module Obs = Vessel_obs
module Hw = Vessel_hw
module Mem = Vessel_mem
module U = Vessel_uprocess
module S = Vessel_sched
module W = Vessel_workloads
module Cluster = Vessel_cluster.Cluster
module Net = Vessel_cluster.Net
module Harness = Vessel_check.Harness
module Checker = Vessel_check.Checker

let domains = 2
let now = Unix.gettimeofday
let t_launch = now ()

(* Set-up is repeated in every batch process and its median reported:
   one ~20 ms build alone reads anywhere from 15 to 55 ms on a loaded
   host. *)
let setup_repeats = 3
let cpu () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* ------------------------------------------------------------------ *)
(* JSON output *)

let q = Obs.Json.quote
let jfloat x = Printf.sprintf "%.9g" x
let jobj kvs =
  "{" ^ String.concat ", " (List.map (fun (k, v) -> q k ^ ": " ^ v) kvs) ^ "}"
let jarr vs = "[" ^ String.concat ", " vs ^ "]"

let emit_line s =
  print_string s;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* The benchmark's own spans: kept in memory, reported at exit. Points
   run on pool domains, hence the lock (it also guards [lanes]). *)

let lock = Mutex.create ()
let spans = ref []

let span name f =
  let t0 = now () in
  Fun.protect f ~finally:(fun () ->
      let t1 = now () in
      let tid = (Domain.self () :> int) in
      Mutex.protect lock (fun () -> spans := (name, t0, t1, tid) :: !spans))

let spans_json () =
  jarr
    (List.rev_map
       (fun (n, t0, t1, tid) ->
         jarr [ q n; Printf.sprintf "%.6f" t0; Printf.sprintf "%.6f" t1; string_of_int tid ])
       !spans)

(* ------------------------------------------------------------------ *)
(* Workloads. A point is (label, digest of its simulated output,
   checker violations). Digests cover the exact returned records, so
   any change to a simulated number changes them. *)

type point = { label : string; digest : string; violations : int }

let digest v = Digest.to_hex (Digest.string (Marshal.to_string v []))
let point ?(violations = 0) label v = { label; digest = digest v; violations }

(* [render] prints the batch's rows as vessel-sim prints them. *)
type batch = { points : point list; extra : (string * int) list; render : unit -> unit }

let colo_points () =
  let capacity = 8. *. 1e9 /. W.Memcached.mean_service_ns in
  List.concat_map
    (fun sched ->
      List.map
        (fun (load, frac) -> (sched, load, frac *. capacity))
        [ ("low", 0.2); ("mid", 0.5); ("high", 0.9) ])
    [ Runner.Vessel; Runner.Caladan ]

let run_colo seed =
  let pts = colo_points () in
  let label (sched, load, _) = Printf.sprintf "%s/%s" (Runner.sched_name sched) load in
  let ms =
    Runner.sweep
      (fun ((sched, _, rate_rps) as p) ->
        span ("colo " ^ label p) (fun () ->
            Runner.run_colocation ~seed ~sched ~l_app:Runner.Memcached ~rate_rps ()))
      pts
  in
  let render () =
    List.iter2
      (fun p (m : Runner.measurement) ->
        Printf.printf "%-14s offered %.0f achieved %.0f p50 %.1fus p99 %.1fus p999 %.1fus B %d ns\n"
          (label p) m.offered_rps m.achieved_rps m.p50_us m.p99_us m.p999_us m.b_completed_ns)
      pts ms
  in
  { points = List.map2 (fun p m -> point (label p) m) pts ms; extra = []; render }

(* Exp_fleet.run measures its points sequentially, each on a fresh
   cluster from the same seed; one call per point gives the same rows
   with a span and a digest each. *)
let run_fleet seed =
  let results =
    List.concat_map
      (fun scenario ->
        List.map
          (fun policy ->
            let label =
              Printf.sprintf "%s/%s"
                (Exp_fleet.scenario_name scenario)
                (W.Frontend.policy_name policy)
            in
            let r =
              span ("fleet " ^ label) (fun () ->
                  Exp_fleet.run ~seed ~scenarios:[ scenario ] ~policies:[ policy ] ())
            in
            (label, r))
          W.Frontend.all_policies)
      Exp_fleet.all_scenarios
  in
  let served =
    List.fold_left
      (fun acc (_, r) ->
        List.fold_left (fun acc ((row : Exp_fleet.row), _) -> acc + row.served) acc r)
      0 results
  in
  {
    points = List.map (fun (label, r) -> point label r) results;
    extra = [ ("workloads.frontend.served", served) ];
    render = (fun () -> Exp_fleet.print (List.concat_map snd results));
  }

let run_mem seed =
  let points name = List.mapi (fun i r -> point (Printf.sprintf "%s#%d" name i) r) in
  let a = span "fig11" (fun () -> Exp_fig11.run ~seed ()) in
  let b = span "fig13a" (fun () -> Exp_fig13.run_colocation ~seed ()) in
  let c = span "fig13b" (fun () -> Exp_fig13.run_accuracy ~seed ()) in
  {
    points = points "fig11" a @ points "fig13a" b @ points "fig13b" c;
    extra = [];
    render =
      (fun () ->
        Exp_fig11.print a;
        Exp_fig13.print_colocation b;
        Exp_fig13.print_accuracy c);
  }

let chaos_seeds seed = List.init 8 (fun i -> seed + i)

let chaos_verdicts seed =
  Harness.run_sweep ~seeds:(chaos_seeds seed) ~profiles:[ Vessel_check.Fault.Chaos ]
    ~scenarios:Harness.all_scenarios ()

let run_chaos seed =
  let vs = span "chaos sweep" (fun () -> chaos_verdicts seed) in
  let sum f = List.fold_left (fun a v -> a + f v) 0 vs in
  {
    points =
      List.map
        (fun (v : Harness.verdict) ->
          point ~violations:v.total_violations
            (Printf.sprintf "%d/%s" v.seed (Harness.scenario_name v.scenario))
            v)
        vs;
    extra =
      [
        ("check.runs", List.length vs);
        ("check.violating_runs", sum (fun v -> if v.total_violations > 0 then 1 else 0));
        ("check.probe_events", sum (fun v -> v.events));
        ("hw.inject.faults", sum (fun v -> v.faults));
      ];
    render = (fun () -> ignore (Harness.print_report vs));
  }

(* Set-up: what a run builds before its first simulated event — the
   worker domains, then each distinct machine shape of the workload
   with its scheduler, uProcess images and applications. Built here
   once and discarded; the batch builds its own. *)

let setup_colo seed =
  List.iter
    (fun sched ->
      let b = Runner.build ~seed ~cores:8 sched in
      ignore (W.Memcached.make ~sim:b.sim ~sys:b.sys ~app_id:1 ~workers:8 ());
      ignore (W.Linpack.make ~sys:b.sys ~app_id:2 ~workers:8 ()))
    [ Runner.Vessel; Runner.Caladan ]

let setup_fleet seed =
  let cluster = Cluster.create ~seed ~machines:9 ~lookahead:20_000 () in
  let backends =
    List.init 8 (fun i ->
        let b = Runner.build ~sim:(Cluster.sim cluster (i + 1)) ~cores:2 Runner.Vessel in
        (i + 1, b.sys))
  in
  ignore
    (W.Frontend.create ~cluster ~frontend:0 ~policy:W.Frontend.Round_robin
       ~service:W.Memcached.service_dist ~workers:2 ~backends ())

let setup_mem seed =
  let ws = 512 * 1024 in
  List.iter
    (fun sched ->
      let b = Runner.build ~seed ~cores:1 sched in
      ignore (W.Objcopy.make ~sys:b.sys ~app_id:1 ~name:"copyA" ~region:(0x100000, ws) ());
      ignore (W.Objcopy.make ~sys:b.sys ~app_id:2 ~name:"copyB" ~region:(0x100000 + ws, ws) ()))
    [ Runner.Vessel; Runner.Caladan ];
  let b = Runner.build ~seed ~cores:4 Runner.Vessel in
  ignore (W.Memcached.make ~sim:b.sim ~sys:b.sys ~app_id:1 ~workers:4 ());
  ignore (W.Membench.make ~sys:b.sys ~app_id:2 ~workers:4 ())

let setup_chaos seed =
  setup_colo seed;
  setup_fleet seed

let workloads =
  [
    ("colo", (setup_colo, run_colo));
    ("fleet", (setup_fleet, run_fleet));
    ("chaos", (setup_chaos, run_chaos));
    ("mem", (setup_mem, run_mem));
  ]

(* ------------------------------------------------------------------ *)
(* Traced mode: every domain gets a counting sink and a metrics
   registry, and the probes are switched on once, before any
   simulation — never toggled by a scope while domains run. *)

type lane = { counts : (string, int ref) Hashtbl.t; reg : Obs.Metrics.t }

let lanes = ref []

let install_lane () =
  let l = { counts = Hashtbl.create 64; reg = Obs.Metrics.create () } in
  let count name =
    match Hashtbl.find_opt l.counts name with
    | Some r -> incr r
    | None -> Hashtbl.add l.counts name (ref 1)
  in
  let sink =
    Obs.Sink.of_fn (function
      | Obs.Event.Instant { name; _ } | Obs.Event.Span_begin { name; _ } -> count name
      | _ -> ())
  in
  Obs.Probe.install ~sink ~reg:(Some l.reg);
  Mutex.protect lock (fun () -> lanes := l :: !lanes)

(* One job per domain; each waits for the others so no domain takes
   two. *)
let install_everywhere () =
  let arrived = Atomic.make 0 in
  ignore
    (Pool.map ~domains
       (fun _ ->
         install_lane ();
         Atomic.incr arrived;
         let deadline = now () +. 10. in
         while Atomic.get arrived < domains && now () < deadline do
           Domain.cpu_relax ()
         done)
       (List.init domains Fun.id));
  if Atomic.get arrived <> domains then failwith "traced mode: a pool domain never started";
  Obs.Probe.set_trace_configured true;
  Obs.Probe.set_metrics_configured true

let traced_json () =
  let merged = Obs.Metrics.create () in
  let counts = Hashtbl.create 64 in
  List.iter
    (fun l ->
      Obs.Metrics.merge ~into:merged l.reg;
      Hashtbl.iter
        (fun k r ->
          Hashtbl.replace counts k (!r + Option.value ~default:0 (Hashtbl.find_opt counts k)))
        l.counts)
    !lanes;
  let names = List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts []) in
  [
    ("probe_counts", jobj (List.map (fun (k, v) -> (k, string_of_int v)) names));
    ("metrics", String.concat " " (String.split_on_char '\n' (Obs.Metrics.to_string merged)));
  ]

(* ------------------------------------------------------------------ *)
(* Layer drivers: each layer's public operations timed on their own, at
   the operating points the workloads run (8 cores, 9 machines, 512 KiB
   working sets), warmed before timing. Each reports the median over
   chunks of its ns/op. *)

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a.(Array.length a / 2)

let time_once f =
  let t0 = now () in
  f ();
  now () -. t0

(* [f ()] performs [ops] operations. *)
let ns_per_op ?(chunks = 9) ~ops f =
  f ();
  median
    (List.init chunks (fun _ -> time_once f *. 1e9 /. float_of_int ops))

let drv_dispatch () =
  let sim = Sim.create ~seed:7 () in
  let remaining = ref 0 in
  let tag = ref 0 in
  tag :=
    Sim.register_handler sim (fun _ _ ->
        if !remaining > 0 then begin
          decr remaining;
          ignore (Sim.schedule_tagged_after sim ~delay:1 ~tag:!tag ~a:0 ~b:0)
        end);
  let n = 1_000_000 in
  ns_per_op ~ops:n (fun () ->
      remaining := n;
      ignore (Sim.schedule_tagged_after sim ~delay:1 ~tag:!tag ~a:0 ~b:0);
      Sim.run_until sim (Sim.now sim + n + 2))

let drv_queue_churn () =
  let q = Eq.create () in
  let st = ref 0x9E3779B9 in
  let next_delta () =
    let x = !st in
    let x = x lxor (x lsl 13) in
    let x = x lxor (x lsr 7) in
    let x = (x lxor (x lsl 17)) land max_int in
    st := x;
    1 + ((x lsr 11) land 0xF_FFFF)
  in
  let t = ref 0 in
  for _ = 1 to 1000 do
    ignore (Eq.add q ~time:(!t + next_delta ()) ())
  done;
  let n = 200_000 in
  ns_per_op ~ops:n (fun () ->
      for _ = 1 to n do
        (match Eq.pop q with Some (time, ()) -> t := time | None -> ());
        ignore (Eq.add q ~time:(!t + next_delta ()) ())
      done)

let drv_pool_map () =
  let jobs = List.init 9 Fun.id in
  let maps = 10_000 in
  ns_per_op ~ops:(maps * 9) (fun () ->
      for _ = 1 to maps do
        ignore (Pool.map ~domains (fun x -> x + 1) jobs)
      done)

(* Pure scheduler churn on an 8-core VESSEL machine: one latency-critical
   app whose 8 workers park immediately, behind a backlog probe that
   always reports depth, so every scan tick wakes them all through the
   runtime and they dispatch and park again. *)
let churn_system () =
  let b = Runner.build ~seed:91 ~cores:8 Runner.Vessel in
  let sys = b.sys in
  sys.add_app { S.Sched_intf.id = 1; name = "srv"; class_ = S.Sched_intf.Latency_critical };
  for i = 0 to 7 do
    ignore
      (sys.add_worker ~app_id:1 ~name:(Printf.sprintf "w%d" i) ~step:(fun ~now:_ ->
           U.Uthread.Park))
  done;
  S.Vessel.set_backlog_probe (Option.get b.vessel) ~app_id:1 (fun () -> 16);
  sys.start ();
  Sim.run_until b.sim 1_000_000;
  b

let churn_until = 11_000_000

(* Switches and events in the churn window, counted once with a metrics
   registry live; the timed runs repeat the identical window dormant. *)
let churn_counts () =
  let reg = Obs.Metrics.create () in
  Obs.Probe.install ~sink:Obs.Sink.null ~reg:(Some reg);
  Obs.Probe.set_metrics_configured true;
  let b = churn_system () in
  let c0 = Obs.Metrics.counter_value reg "uproc.switches" in
  let e0 = Sim.total_events_executed () in
  Sim.run_until b.sim churn_until;
  let switches = Obs.Metrics.counter_value reg "uproc.switches" - c0 in
  let events = Sim.total_events_executed () - e0 in
  Obs.Probe.set_metrics_configured false;
  Obs.Probe.install ~sink:Obs.Sink.null ~reg:None;
  (switches, events)

let drv_switch () =
  let switches, events = churn_counts () in
  let once () =
    let b = churn_system () in
    time_once (fun () -> Sim.run_until b.sim churn_until)
  in
  ignore (once ());
  let wall = median (List.init 7 (fun _ -> once ())) in
  (wall *. 1e9 /. float_of_int switches, float_of_int events /. float_of_int switches)

let drv_core_index () =
  let idx = U.Core_index.create ~ncores:8 in
  U.Core_index.track idx (Array.init 8 Fun.id);
  let rng = Vessel_engine.Rng.create ~seed:3 in
  let n = 4096 in
  let ops = Array.init n (fun _ -> Vessel_engine.Rng.bits rng) in
  let sink = ref 0 in
  let reps = 100 in
  ns_per_op ~ops:(reps * n) (fun () ->
      for _ = 1 to reps do
        for i = 0 to n - 1 do
          let x = ops.(i) in
          let c = x land 7 in
          (* One state change, then the idle -> BE -> shortest query
             chain a wake placement walks. *)
          (match (x lsr 3) land 3 with
          | 0 -> U.Core_index.set_idle idx c (x land 32 = 0)
          | 1 -> U.Core_index.set_be idx c (x land 32 = 0)
          | _ -> U.Core_index.sync_len idx c ((x lsr 6) land 7));
          let p = U.Core_index.first_idle idx in
          let p = if p >= 0 then p else U.Core_index.first_be idx in
          sink := !sink + if p >= 0 then p else U.Core_index.shortest idx
        done
      done)

let gate_domain () =
  let sim = Sim.create ~seed:7 () in
  let machine = Hw.Machine.create ~cores:2 sim in
  let smas = Mem.Smas.create (Mem.Layout.create ~slots:2 ()) in
  let pipe = U.Message_pipe.create smas ~ncores:2 in
  let gate = U.Call_gate.create ~smas ~pipe ~cost:Hw.Cost_model.default () in
  U.Message_pipe.register_function pipe ~index:0 ~fn_id:100;
  let core = Hw.Machine.core machine 0 in
  let task = Mem.Smas.pkru_for_slot smas 0 in
  U.Message_pipe.set_task pipe ~core:0 ~tid:1 ~pkru:task;
  Hw.Core.set_pkru core task;
  let stack = (Mem.Layout.slot_data (Mem.Smas.layout smas) 0).Mem.Region.base + 0x1000 in
  (gate, core, stack)

let drv_call_gate () =
  let gate, core, user_stack = gate_domain () in
  let n = 50_000 in
  ns_per_op ~ops:n (fun () ->
      for _ = 1 to n do
        match U.Call_gate.enter gate ~core ~fn_index:0 ~user_stack with
        | Ok s -> ignore (U.Call_gate.leave gate ~core s)
        | Error _ -> failwith "call gate refused"
      done)

let drv_senduipi () =
  let u = Hw.Uintr.create ~notify:(fun _ -> ()) in
  let r = Hw.Uintr.register_receiver u ~id:1 in
  Hw.Uintr.set_running u r true;
  let uitt = Hw.Uintr.create_uitt u ~size:1 in
  Hw.Uintr.uitt_set uitt ~index:0 r ~vector:3;
  let n = 200_000 in
  ns_per_op ~ops:n (fun () ->
      for _ = 1 to n do
        ignore (Hw.Uintr.senduipi u uitt ~index:0);
        ignore (Hw.Uintr.take_pending r)
      done)

let drv_pkru () =
  let core = Hw.Core.create ~id:0 ~rng:(Vessel_engine.Rng.create ~seed:5) in
  let n = 1_000_000 in
  ns_per_op ~ops:n (fun () ->
      for i = 1 to n do
        let key = Hw.Pkey.of_int (1 + (i land 7)) in
        Hw.Core.set_pkru core (Hw.Pkru.set Hw.Pkru.all_denied key Hw.Pkru.Read_write)
      done)

(* fig11's VESSEL placement: two 512 KiB working sets back to back,
   walked alternately through the default 2 MiB LLC. *)
let drv_cache () =
  let cache = Hw.Cache.create () in
  let ws = 512 * 1024 in
  let walks = 100 in
  ns_per_op ~ops:(walks * ws / 64) (fun () ->
      for i = 1 to walks do
        Hw.Cache.access_run cache ~addr:(0x100000 + (i land 1 * ws)) ~len:ws ()
      done)

let drv_membw () =
  let m = Hw.Membw.create () in
  let at = ref 0 in
  let n = 500_000 in
  let sink = ref 0. in
  ns_per_op ~ops:n (fun () ->
      for i = 1 to n do
        at := !at + 250;
        Hw.Membw.consume m ~app:(1 + (i land 1)) ~bytes:4096 ~at:!at;
        sink := !sink +. Hw.Membw.congestion m
      done)

(* A colo-shaped scheduling domain: manager (SMAS layout, runtime) on
   an 8-core machine plus two loaded uProcess images; ns per image. *)
let drv_image_load () =
  let rng = Vessel_engine.Rng.create ~seed:11 in
  let images =
    [ Mem.Image.make ~name:"memcached" ~text_size:16_384 rng;
      Mem.Image.make ~name:"linpack" ~text_size:16_384 rng ]
  in
  let doms = 4 in
  (* A runtime registers its event handlers on the machine's sim, so
     every domain gets a fresh machine, built outside the timed part. *)
  let chunk () =
    let machines =
      Array.init doms (fun i -> Hw.Machine.create ~cores:8 (Sim.create ~seed:i ()))
    in
    time_once (fun () ->
        Array.iter
          (fun machine ->
            let mgr = U.Manager.create ~machine () in
            List.iter
              (fun image ->
                match U.Manager.create_uprocess mgr ~name:"app" ~image () with
                | Ok _ -> ()
                | Error e -> failwith (Format.asprintf "%a" U.Manager.pp_create_error e))
              images)
          machines)
  in
  ignore (chunk ());
  median (List.init 9 (fun _ -> chunk ())) *. 1e9 /. float_of_int (doms * 2)

let drv_histogram () =
  let h = Vessel_stats.Histogram.create () in
  let n = 1_000_000 in
  ns_per_op ~ops:n (fun () ->
      for i = 1 to n do
        Vessel_stats.Histogram.record h (1 + ((i * 7919) land 0xFFFFF))
      done)

(* The probe call-site pattern on a self-rescheduling event, as the
   instrumented hot paths use it. *)
let probe_loop ~probed n =
  let sim = Sim.create ~seed:7 () in
  let remaining = ref n in
  let rec step s =
    if !remaining > 0 then begin
      decr remaining;
      if probed then begin
        if !Obs.Probe.on then
          Obs.Probe.instant ~ts:(Sim.now s) ~track:Obs.Track.Engine ~name:"bench.tick" ();
        if !Obs.Probe.metrics_on then Obs.Probe.incr "bench.ticks"
      end;
      ignore (Sim.schedule_after s ~delay:1 step)
    end
  in
  ignore (Sim.schedule sim ~at:1 step);
  Sim.run_until sim (n + 2)

(* Dormant probes: alternating plain/probed chunks, median of the
   per-pair ratios, in percent. *)
let drv_probe_dormant () =
  let chunk = 100_000 and pairs = 201 in
  probe_loop ~probed:false chunk;
  probe_loop ~probed:true chunk;
  let ratios =
    List.init pairs (fun i ->
        let first = i land 1 = 0 in
        let a = time_once (fun () -> probe_loop ~probed:first chunk) in
        let b = time_once (fun () -> probe_loop ~probed:(not first) chunk) in
        if first then a /. b else b /. a)
  in
  (median ratios -. 1.) *. 100.

(* Recording: the same loop with a live ring sink and registry, minus
   the plain loop, per event. *)
let drv_probe_record () =
  let n = 300_000 in
  let plain = ns_per_op ~chunks:9 ~ops:n (fun () -> probe_loop ~probed:false n) in
  let ring = Obs.Ring.create () in
  let reg = Obs.Metrics.create () in
  let live =
    ns_per_op ~chunks:9 ~ops:n (fun () ->
        Obs.Probe.with_sink ~reg (Obs.Ring.sink ring) (fun () -> probe_loop ~probed:true n))
  in
  live -. plain

(* A recorded probe stream from 2 ms of VESSEL colocation (memcached +
   linpack, 8 cores), replayed into fresh checkers. *)
let drv_checker () =
  let j = Obs.Journal.create () in
  Obs.Probe.with_sink (Obs.Journal.sink j) (fun () ->
      let b = Runner.build ~seed:5 ~cores:8 Runner.Vessel in
      let gen = W.Memcached.make ~sim:b.sim ~sys:b.sys ~app_id:1 ~workers:8 () in
      ignore (W.Linpack.make ~sys:b.sys ~app_id:2 ~workers:8 ());
      b.sys.start ();
      let rate_rps = 0.5 *. 8. *. 1e9 /. W.Memcached.mean_service_ns in
      W.Openloop.start gen ~rate_rps ~until:2_000_000;
      Sim.run_until b.sim 2_000_000;
      b.sys.stop ());
  let evs = Array.of_list (Obs.Journal.to_list j) in
  let n = Array.length evs in
  ns_per_op ~chunks:9 ~ops:n (fun () ->
      let c = Checker.create () in
      Array.iter (Checker.handle c) evs)

(* An empty lockstep epoch of the fleet's 9 machines over 2 domains,
   with one Net link (receive handlers everywhere) flushed per barrier. *)
let drv_epoch () =
  let la = 20_000 in
  let c = Cluster.create ~seed:3 ~machines:9 ~lookahead:la () in
  let link : int Net.t = Net.link c in
  for m = 0 to 8 do
    Net.on_receive link ~machine:m (fun ~now:_ ~src:_ _ -> ())
  done;
  let epochs = 5000 in
  ns_per_op ~ops:epochs (fun () ->
      Cluster.run_until ~domains c (Cluster.now c + (epochs * la)))

let layer_metrics () =
  let switch_ns, events_per_switch = span "layer uproc.switch_host_ns" drv_switch in
  [
    ("uproc.switch_host_ns", switch_ns);
    ("uproc.switch_events", events_per_switch);
  ]
  @ List.map
      (fun (name, f) -> (name, span ("layer " ^ name) f))
      [
        ("engine.dispatch_ns", drv_dispatch);
        ("engine.queue.churn_ns", drv_queue_churn);
        ("engine.pool.map_ns", drv_pool_map);
        ("uproc.core_index.place_ns", drv_core_index);
        ("uproc.call_gate.cross_ns", drv_call_gate);
        ("hw.uintr.senduipi_ns", drv_senduipi);
        ("hw.pkru.set_ns", drv_pkru);
        ("hw.cache.access_run_ns", drv_cache);
        ("hw.membw.consume_ns", drv_membw);
        ("mem.image_load_ns", drv_image_load);
        ("stats.histogram.record_ns", drv_histogram);
        ("obs.probe.dormant_overhead_pct", drv_probe_dormant);
        ("obs.probe.record_ns", drv_probe_record);
        ("check.handle_ns", drv_checker);
        ("cluster.epoch_ns", drv_epoch);
      ]

(* ------------------------------------------------------------------ *)
(* Modes *)

let run_mode ~workload ~seed ~traced =
  let setup, run = List.assoc workload workloads in
  let builds =
    List.init setup_repeats (fun i ->
        time_once (fun () ->
            span (Printf.sprintf "set-up %d" i) (fun () ->
                ignore (Pool.map ~domains Fun.id (List.init domains Fun.id));
                setup seed)))
  in
  if traced then install_everywhere ();
  emit_line
    (jobj
       [ ("launched", Printf.sprintf "%.6f" t_launch);
         ("builds", jarr (List.map jfloat builds)) ]);
  let g0 = Gc.quick_stat () in
  let e0 = Sim.total_events_executed () in
  let c0 = cpu () in
  let w0 = now () in
  let b = span ("workload " ^ workload) (fun () -> run seed) in
  let wall = now () -. w0 in
  let cpu_s = cpu () -. c0 in
  let events = Sim.total_events_executed () - e0 in
  let g1 = Gc.quick_stat () in
  emit_line
    (jobj
       ([
          ("wall_s", jfloat wall);
          ("cpu_s", jfloat cpu_s);
          ("events", string_of_int events);
          ("minor_words", jfloat (g1.minor_words -. g0.minor_words));
          ("major_collections", string_of_int (g1.major_collections - g0.major_collections));
          ( "points",
            jarr
              (List.map
                 (fun p ->
                   jobj
                     [ ("label", q p.label); ("digest", q p.digest);
                       ("violations", string_of_int p.violations) ])
                 b.points) );
          ("extra", jobj (List.map (fun (k, v) -> (k, string_of_int v)) b.extra));
          ("spans", spans_json ());
        ]
       @ if traced then traced_json () else []))

let reference_mode ~workload ~seed =
  Runner.set_domains 1;
  let _, run = List.assoc workload workloads in
  let b = run seed in
  emit_line (jarr (List.map (fun p -> q p.digest) b.points))

(* The digested rows rendered on stdout by the library print functions
   vessel-sim uses (at vessel-sim's default -j), and their digests on
   stderr: the same text as vessel-sim ties the digests to its output. *)
let print_mode ~workload ~seed =
  let _, run = List.assoc workload workloads in
  let b = run seed in
  b.render ();
  prerr_endline (jarr (List.map (fun p -> q p.digest) b.points))

let layers_mode () =
  let ms = span "layer drivers" layer_metrics in
  emit_line
    (jobj
       [ ("layers", jobj (List.map (fun (k, v) -> (k, jfloat v)) ms));
         ("spans", spans_json ()) ])

let () =
  Pool.tune_gc ();
  Runner.set_domains domains;
  let workload = ref "" and seed = ref 42 and traced = ref false in
  let mode, rest =
    match Array.to_list Sys.argv with
    | _ :: m :: rest -> (m, rest)
    | _ -> ("", [])
  in
  let rec parse = function
    | "--workload" :: w :: r -> workload := w; parse r
    | "--seed" :: s :: r -> seed := int_of_string s; parse r
    | "--traced" :: r -> traced := true; parse r
    | "--jobs" :: j :: r -> Runner.set_domains (int_of_string j); parse r
    | [] -> ()
    | a :: _ -> prerr_endline ("hostbench: unknown argument " ^ a); exit 2
  in
  parse rest;
  let need_workload () =
    if not (List.mem_assoc !workload workloads) then begin
      prerr_endline
        ("hostbench: --workload must be one of "
        ^ String.concat ", " (List.map fst workloads));
      exit 2
    end
  in
  match mode with
  | "run" -> need_workload (); run_mode ~workload:!workload ~seed:!seed ~traced:!traced
  | "reference" -> need_workload (); reference_mode ~workload:!workload ~seed:!seed
  | "print" -> need_workload (); print_mode ~workload:!workload ~seed:!seed
  | "layers" -> layers_mode ()
  | _ ->
      prerr_endline
        "usage: hostbench.exe (run|reference|print|layers) [--workload W] [--seed S] \
         [--traced] [--jobs N]";
      exit 2
