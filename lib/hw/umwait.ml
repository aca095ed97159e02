type t = {
  mutable since : Vessel_engine.Time.t; (* idle since; -1 = awake *)
  mutable total : Vessel_engine.Time.t;
  mutable wakes : int;
}

let create () = { since = -1; total = 0; wakes = 0 }

let enter t ~at =
  if t.since >= 0 then invalid_arg "Umwait.enter: already idle";
  t.since <- at

let wake t ~at =
  match t.since with
  | -1 -> invalid_arg "Umwait.wake: not idle"
  | s ->
      if at < s then invalid_arg "Umwait.wake: time went backwards";
      if !Vessel_obs.Probe.metrics_on then begin
        Vessel_obs.Probe.incr "hw.umwait.wakes";
        Vessel_obs.Probe.observe "hw.umwait.idle_ns" (at - s)
      end;
      t.total <- t.total + (at - s);
      t.wakes <- t.wakes + 1;
      t.since <- -1

let is_idle t = t.since >= 0
let total_idle t = t.total
let wakes t = t.wakes
