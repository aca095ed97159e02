type vector = int

type receiver = {
  id : int;
  (* Posted-interrupt requests, one bit per vector, as two unboxed 32-bit
     halves (vectors 0-31, 32-63): a [mutable int64] would box a fresh
     value and pay [caml_modify] on every post. *)
  mutable pir_lo : int;
  mutable pir_hi : int;
  mutable running : bool;
  mutable suppressed : bool;
}

type entry = { target : receiver; vector : vector }

type uitt = { entries : entry option array }

type t = { notify : receiver -> unit; mutable receivers : receiver list }

let create ~notify = { notify; receivers = [] }

let register_receiver t ~id =
  let r = { id; pir_lo = 0; pir_hi = 0; running = false; suppressed = false } in
  t.receivers <- r :: t.receivers;
  r

let receiver_id r = r.id

let create_uitt _t ~size =
  if size <= 0 then invalid_arg "Uintr.create_uitt: size must be positive";
  { entries = Array.make size None }

let uitt_set uitt ~index r ~vector =
  if index < 0 || index >= Array.length uitt.entries then
    invalid_arg "Uintr.uitt_set: index out of range";
  if vector < 0 || vector > 63 then
    invalid_arg "Uintr.uitt_set: vector must be in [0,63]";
  uitt.entries.(index) <- Some { target = r; vector }

let post r vector =
  if vector < 32 then r.pir_lo <- r.pir_lo lor (1 lsl vector)
  else r.pir_hi <- r.pir_hi lor (1 lsl (vector - 32))

let has_pending r = r.pir_lo lor r.pir_hi <> 0

let senduipi t uitt ~index =
  if index < 0 || index >= Array.length uitt.entries then
    invalid_arg "Uintr.senduipi: index out of range";
  match uitt.entries.(index) with
  | None -> invalid_arg "Uintr.senduipi: empty UITT entry"
  | Some { target; vector } ->
      post target vector;
      if target.running && not target.suppressed then begin
        if !Vessel_obs.Probe.metrics_on then
          Vessel_obs.Probe.incr "hw.uintr.notified";
        t.notify target;
        `Notified
      end
      else begin
        if !Vessel_obs.Probe.metrics_on then
          Vessel_obs.Probe.incr "hw.uintr.deferred";
        `Deferred
      end

let set_running t r running =
  let was = r.running in
  r.running <- running;
  if running && (not was) && (not r.suppressed) && has_pending r then
    t.notify r

let is_running r = r.running

let set_suppressed t r suppressed =
  let was = r.suppressed in
  r.suppressed <- suppressed;
  if was && (not suppressed) && r.running && has_pending r then t.notify r

(* Would a notification reach this receiver right now? Used by delayed /
   retried deliveries to re-validate before dispatching: the victim may
   have parked (clearing PIR at privileged entry) or been suppressed
   while the notification was in flight. *)
let deliverable r = r.running && (not r.suppressed) && has_pending r

let take_pending r =
  (* Usually empty: pick_next polls this at every privileged entry, so
     the common case must not walk 64 vector positions. *)
  if not (has_pending r) then []
  else begin
    let lo = r.pir_lo and hi = r.pir_hi in
    r.pir_lo <- 0;
    r.pir_hi <- 0;
    (* Pop set bits with the de Bruijn ctz: the drain allocates one cell
       per pending vector (the result list). Popping the lowest bit
       builds each half in descending order, lo half consed deepest, so
       one reverse yields the ascending vector order callers expect. *)
    let rec pop base x acc =
      if x = 0 then acc
      else
        pop base
          (x land (x - 1))
          ((base + Vessel_engine.Bits.ctz32 x) :: acc)
    in
    List.rev (pop 32 hi (pop 0 lo []))
  end
