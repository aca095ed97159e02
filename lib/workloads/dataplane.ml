module Sim = Vessel_engine.Sim
module Dist = Vessel_engine.Dist
module Rng = Vessel_engine.Rng
module U = Vessel_uprocess
module S = Vessel_sched
module Stats = Vessel_stats

type kind = Nic | Ssd of { latency : Dist.t }

type t = {
  sim : Sim.t;
  sys : S.Sched_intf.system;
  app_id : int;
  kind : kind;
  rng : Rng.t;
  queue : int Queue.t; (* ready items: arrival/submission timestamps *)
  latencies : Stats.Histogram.t;
  mutable inflight : int;
  mutable processed : int;
  mutable complete_tag : int;
      (* Sim dispatch tag for SSD completions; the submit path is
         closure-free *)
}

let post t ~stamp =
  Queue.push stamp t.queue;
  t.sys.S.Sched_intf.notify_app ~app_id:t.app_id

let make ~sim ~sys ~app_id kind =
  let t =
    {
      sim;
      sys;
      app_id;
      kind;
      rng = Rng.split (Sim.rng sim);
      queue = Queue.create ();
      latencies = Stats.Histogram.create ();
      inflight = 0;
      processed = 0;
      complete_tag = -1;
    }
  in
  t.complete_tag <-
    Sim.register_handler sim (fun _ stamp ->
        t.inflight <- t.inflight - 1;
        (* Completion latency is measured from submission. The stamp
           rides the wide [b] argument: it is a timestamp, far past the
           16-bit [a] range. *)
        post t ~stamp);
  t

let create_nic ~sim ~sys ~app_id () = make ~sim ~sys ~app_id Nic

let default_ssd_latency =
  (* ~10 us flash read with a mild tail. *)
  Dist.shifted 8_000. (Dist.exponential ~mean:2_000.)

let create_ssd ~sim ~sys ~app_id ?(device_latency = default_ssd_latency) () =
  make ~sim ~sys ~app_id (Ssd { latency = device_latency })

let rx t ~at =
  match t.kind with
  | Nic -> post t ~stamp:at
  | Ssd _ -> invalid_arg "Dataplane.rx: not a NIC"

let submit t ~now =
  match t.kind with
  | Nic -> invalid_arg "Dataplane.submit: not an SSD"
  | Ssd { latency } ->
      t.inflight <- t.inflight + 1;
      let d = Int.max 1 (int_of_float (Float.round (Dist.sample latency t.rng))) in
      ignore
        (Sim.schedule_tagged_after t.sim ~delay:d ~tag:t.complete_tag ~a:0
           ~b:now)

let poller_step t ?(batch = 16) ?(proc_ns = 600) ?(poll_ns = 200) () =
  (* One poll probe per dry spell, then park: the section-5.2.5
     instrumentation that keeps busy-spinning loops from pinning cores. *)
  let probed = ref false in
  fun ~now:_ ->
    if Queue.is_empty t.queue then begin
      if !probed then begin
        probed := false;
        U.Uthread.Park
      end
      else begin
        probed := true;
        U.Uthread.Runtime_work { ns = poll_ns; on_complete = None }
      end
    end
    else begin
      probed := false;
      let n = Int.min batch (Queue.length t.queue) in
      let stamps = List.init n (fun _ -> Queue.pop t.queue) in
      U.Uthread.Compute
        {
          ns = n * proc_ns;
          on_complete =
            Some
              (fun finished ->
                t.processed <- t.processed + n;
                List.iter
                  (fun stamp ->
                    Stats.Histogram.record t.latencies (Int.max 0 (finished - stamp)))
                  stamps);
        }
    end

let rx_depth t = Queue.length t.queue
let inflight t = t.inflight
let processed t = t.processed
let latencies t = t.latencies
