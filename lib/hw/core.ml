type t = {
  id : int;
  mutable pkru : Pkru.t;
  account : Vessel_stats.Cycle_account.t;
  umwait : Umwait.t;
  rng : Vessel_engine.Rng.t;
  mutable stalls : int;
  mutable stalled_ns : int;
}

let create ~id ~rng =
  {
    id;
    pkru = Pkru.all_denied;
    account = Vessel_stats.Cycle_account.create ();
    umwait = Umwait.create ();
    rng;
    stalls = 0;
    stalled_ns = 0;
  }

let id t = t.id
let pkru t = t.pkru
let set_pkru t v =
  if !Vessel_obs.Probe.metrics_on then Vessel_obs.Probe.incr "hw.pkru.writes";
  t.pkru <- v
let account t = t.account
let charge t cat d = Vessel_stats.Cycle_account.charge t.account cat d
let charge_app t app d = Vessel_stats.Cycle_account.charge_app t.account app d
let umwait t = t.umwait
let rng t = t.rng

let note_stall t ns =
  t.stalls <- t.stalls + 1;
  t.stalled_ns <- t.stalled_ns + ns

let stalls t = t.stalls
let stalled_ns t = t.stalled_ns
let pp fmt t = Format.fprintf fmt "core%d" t.id
