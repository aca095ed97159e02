module Sim = Vessel_engine.Sim
module Rng = Vessel_engine.Rng
module Probe = Vessel_obs.Probe

type t = {
  sim : Sim.t;
  cost : Cost_model.t;
  cores : Core.t array;
  membw : Membw.t;
  (* The LLC model, built on first use: only footprint-carrying memory
     work reads it, and a 2 MiB model is 512 KB of arrays per machine.
     A plain field, not a Lazy.t, whose force raises if two domains
     ever race on it: the field is touched only from the machine's own
     events, which run on one domain at a time, and the pool hand-off
     between epochs orders the write before any later reader. *)
  mutable cache : Cache.t option;
  uintr : Uintr.t;
  ipi : Ipi.t;
  inject : Inject.t;
  mutable dispatch : (Uintr.receiver -> unit) list;
}

let create ?(cost = Cost_model.default) ?membw ?cache ~cores:n sim =
  if n <= 0 then invalid_arg "Machine.create: need at least one core";
  let root = Sim.rng sim in
  let cores = Array.init n (fun id -> Core.create ~id ~rng:(Rng.split root)) in
  let membw = match membw with Some m -> m | None -> Membw.create () in
  let inject = Inject.create () in
  (* The real delivery: probe, then hand the receiver to every installed
     dispatch routine. Delayed/retried injected notifications re-enter
     here once the receiver has been re-validated. *)
  let deliver t r =
    if !Probe.on then
      Probe.instant ~ts:(Sim.now sim)
        ~track:(Vessel_obs.Track.Uproc (Uintr.receiver_id r))
        ~name:Vessel_obs.Tag.uintr_notify ();
    if !Probe.metrics_on then Probe.incr "hw.uintr.notify";
    List.iter (fun f -> f r) t.dispatch
  in
  let faulted_notify t r =
    match inject.Inject.uintr_plan () with
    | Inject.Deliver -> deliver t r
    | Inject.Delay d ->
        if !Probe.on then
          Probe.instant ~ts:(Sim.now sim)
            ~track:(Vessel_obs.Track.Uproc (Uintr.receiver_id r))
            ~name:Vessel_obs.Tag.inject_uintr_delay ();
        if !Probe.metrics_on then Probe.incr "inject.uintr.delay";
        ignore
          (Sim.schedule_after sim ~delay:d (fun _ ->
               if Uintr.deliverable r then deliver t r))
    | Inject.Drop_retry d ->
        (* The notification is lost, but the posted bit survives: model
           redelivery re-examining the PIR after [d]. A privileged entry
           of the victim core in the meantime drains it first. *)
        if !Probe.on then
          Probe.instant ~ts:(Sim.now sim)
            ~track:(Vessel_obs.Track.Uproc (Uintr.receiver_id r))
            ~name:Vessel_obs.Tag.inject_uintr_drop ();
        if !Probe.metrics_on then Probe.incr "inject.uintr.drop";
        ignore
          (Sim.schedule_after sim ~delay:d (fun _ ->
               if Uintr.deliverable r then deliver t r))
  in
  let rec t =
    lazy
      {
        sim;
        cost;
        cores;
        membw;
        cache;
        uintr =
          Uintr.create ~notify:(fun r ->
              let t = Lazy.force t in
              if inject.Inject.enabled then faulted_notify t r
              else deliver t r);
        ipi = Ipi.create ~inject sim cost;
        inject;
        dispatch = [];
      }
  in
  Lazy.force t

let sim t = t.sim
let cost t = t.cost
let cores t = t.cores
let core t i = t.cores.(i)
let ncores t = Array.length t.cores
let membw t = t.membw
let cache t =
  match t.cache with
  | Some c -> c
  | None ->
      let c = Cache.create () in
      t.cache <- Some c;
      c

let uintr t = t.uintr
let ipi t = t.ipi
let inject t = t.inject
let now t = Sim.now t.sim

let set_uintr_dispatch t f = t.dispatch <- f :: t.dispatch

let jitter t core base = Cost_model.jittered t.cost (Core.rng core) base

let total_account t =
  let acc = Vessel_stats.Cycle_account.create () in
  Array.iter
    (fun c -> Vessel_stats.Cycle_account.merge ~into:acc (Core.account c))
    t.cores;
  acc
