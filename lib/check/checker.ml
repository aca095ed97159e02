module Event = Vessel_obs.Event
module Track = Vessel_obs.Track
module Tag = Vessel_obs.Tag
module Sink = Vessel_obs.Sink
module Stats = Vessel_stats
module Hw = Vessel_hw

type config = {
  wakeup_bound : int;
  starvation_bound : int;
  gap_bound : int;
  conservation_tol : float;
  max_violations : int;
}

let default_config =
  {
    (* uintr_delivery is 380 ns and the worst injected drop-retry is
       ~9.5 us; 50 us of slack separates "slow under chaos" from "lost". *)
    wakeup_bound = 50_000;
    (* LC threads must be dispatched eventually even with best-effort
       work monopolizing cores. The literal overload_delay (2 us) only
       bounds the scheduler's *reaction*, not end-to-end queueing under
       load, so the liveness bound is generous: an LC thread sitting
       ready for 5 ms means the preemption path is broken, not slow. *)
    starvation_bound = 5_000_000;
    (* Execution-gap bound, measured enqueue -> dispatch (not enqueue ->
       pop like starvation: a popped-but-never-run thread still counts).
       Same liveness reasoning as above — queueing under burst load is
       legitimate, a multi-ms runnable-but-unscheduled window is not. *)
    gap_bound = 5_000_000;
    conservation_tol = 0.02;
    max_violations = 16;
  }

type violation = { at : int; invariant : string; detail : string }

(* Mirror of Task_queue's discipline, reconstructed from probe events:
   FIFO arrivals, a push_front stack, lazy removal. Entries are (tid,
   serial) because a tid can re-enter a queue after being removed. *)
type qmodel = {
  order : (int * int) Queue.t;
  mutable front : (int * int) list; (* newest first *)
  live : (int, int) Hashtbl.t; (* tid -> live serial *)
  dead : (int * int, unit) Hashtbl.t;
  mutable serial : int;
}

let qmodel_create () =
  {
    order = Queue.create ();
    front = [];
    live = Hashtbl.create 16;
    dead = Hashtbl.create 16;
    serial = 0;
  }

type t = {
  config : config;
  scan_every : int;
  mutable now : int;
  mutable events : int;
  mutable total : int;
  mutable violations : violation list; (* newest first *)
  pending_sends : (int, int) Hashtbl.t; (* core -> first unmatched send ts *)
  lc_ready : (int, int) Hashtbl.t; (* tid -> ready-since ts *)
  (* Like [lc_ready] but cleared only by a dispatch stamp (queue_pop
     does not clear it): the execution-gap invariant measures the full
     enqueue -> on-CPU window, so the scheduler does not get credit for
     popping a thread it never actually ran. *)
  gap_ready : (int, int) Hashtbl.t; (* tid -> ready-since ts *)
  queues : (int, qmodel) Hashtbl.t;
  core_pkru : (int, int) Hashtbl.t; (* core -> pkru of last dispatch *)
  mutable last_scan : int;
  (* Cross-machine causality (cluster runs): the horizon this machine
     has executed to, and the cluster lookahead it advertised. One
     checker per machine — the harness installs one sink per cluster
     scope — so these never mix across machines. *)
  mutable cl_horizon : int;
  mutable cl_lookahead : int;
}

let create ?(config = default_config) () =
  {
    config;
    scan_every =
      max 1_000
        (min config.wakeup_bound (min config.starvation_bound config.gap_bound)
        / 2);
    now = 0;
    events = 0;
    total = 0;
    violations = [];
    pending_sends = Hashtbl.create 8;
    lc_ready = Hashtbl.create 64;
    gap_ready = Hashtbl.create 64;
    queues = Hashtbl.create 8;
    core_pkru = Hashtbl.create 8;
    last_scan = 0;
    cl_horizon = 0;
    cl_lookahead = 0;
  }

let violations t = List.rev t.violations
let total_violations t = t.total
let events_seen t = t.events
let clean t = t.total = 0

let violate t ~at ~invariant detail =
  t.total <- t.total + 1;
  if t.total <= t.config.max_violations then
    t.violations <- { at; invariant; detail } :: t.violations

let arg_int args key =
  match List.assoc_opt key args with
  | Some (Event.Int i) -> Some i
  | _ -> None

let qmodel t q =
  match Hashtbl.find_opt t.queues q with
  | Some m -> m
  | None ->
      let m = qmodel_create () in
      Hashtbl.add t.queues q m;
      m

let model_push m tid =
  m.serial <- m.serial + 1;
  Hashtbl.replace m.live tid m.serial;
  Queue.push (tid, m.serial) m.order

let model_push_front m tid =
  m.serial <- m.serial + 1;
  Hashtbl.replace m.live tid m.serial;
  m.front <- (tid, m.serial) :: m.front

let model_remove m tid =
  match Hashtbl.find_opt m.live tid with
  | Some serial ->
      Hashtbl.replace m.dead (tid, serial) ();
      Hashtbl.remove m.live tid
  | None -> ()

let model_pop m =
  let rec settle_front () =
    match m.front with
    | e :: rest when Hashtbl.mem m.dead e ->
        Hashtbl.remove m.dead e;
        m.front <- rest;
        settle_front ()
    | _ -> ()
  in
  let rec settle_q () =
    match Queue.peek_opt m.order with
    | Some e when Hashtbl.mem m.dead e ->
        Hashtbl.remove m.dead e;
        ignore (Queue.pop m.order);
        settle_q ()
    | _ -> ()
  in
  settle_front ();
  match m.front with
  | e :: rest ->
      m.front <- rest;
      Hashtbl.remove m.live (fst e);
      Some e
  | [] -> (
      settle_q ();
      match Queue.take_opt m.order with
      | Some e ->
          Hashtbl.remove m.live (fst e);
          Some e
      | None -> None)

(* Sorted snapshot of a (key -> ts) table: scan output must not depend on
   hash-bucket order, or verdicts could differ between environments. *)
let aged tbl ~now ~bound =
  Hashtbl.fold
    (fun k ts acc -> if now - ts > bound then (k, ts) :: acc else acc)
    tbl []
  |> List.sort compare

let scan t =
  List.iter
    (fun (core, ts) ->
      Hashtbl.remove t.pending_sends core;
      violate t ~at:t.now ~invariant:"lost-wakeup"
        (Printf.sprintf
           "core %d: uintr.send at %d unmatched by handle/ack for %d ns \
            (bound %d)"
           core ts (t.now - ts) t.config.wakeup_bound))
    (aged t.pending_sends ~now:t.now ~bound:t.config.wakeup_bound);
  List.iter
    (fun (tid, ts) ->
      Hashtbl.remove t.lc_ready tid;
      violate t ~at:t.now ~invariant:"starvation"
        (Printf.sprintf
           "tid %d: latency-critical, ready since %d, undisputed for %d ns \
            (bound %d)"
           tid ts (t.now - ts) t.config.starvation_bound))
    (aged t.lc_ready ~now:t.now ~bound:t.config.starvation_bound);
  List.iter
    (fun (tid, ts) ->
      Hashtbl.remove t.gap_ready tid;
      violate t ~at:t.now ~invariant:"gap"
        (Printf.sprintf
           "tid %d: latency-critical, runnable since %d, unscheduled for %d \
            ns (bound %d)"
           tid ts (t.now - ts) t.config.gap_bound))
    (aged t.gap_ready ~now:t.now ~bound:t.config.gap_bound)

let core_of = function Track.Core c -> Some c | _ -> None

let on_instant t ~ts ~track ~name ~args =
  if String.equal name Tag.uintr_send then (
    match core_of track with
    | Some core ->
        if not (Hashtbl.mem t.pending_sends core) then
          Hashtbl.add t.pending_sends core ts
    | None -> ())
  else if String.equal name Tag.uintr_handle || String.equal name Tag.uintr_ack
  then (
    match core_of track with
    | Some core -> Hashtbl.remove t.pending_sends core
    | None -> ())
  else if String.equal name Tag.dispatch then begin
    (match arg_int args "tid" with
    | Some tid -> (
        Hashtbl.remove t.lc_ready tid;
        match Hashtbl.find_opt t.gap_ready tid with
        | Some ready ->
            Hashtbl.remove t.gap_ready tid;
            (* The exact gap, measured at the dispatch that closes it. *)
            if ts - ready > t.config.gap_bound then
              violate t ~at:ts ~invariant:"gap"
                (Printf.sprintf
                   "tid %d: latency-critical, runnable since %d, dispatched \
                    only after %d ns (bound %d)"
                   tid ready (ts - ready) t.config.gap_bound)
        | None -> ())
    | None -> ());
    match (core_of track, arg_int args "pkru") with
    | Some core, Some pkru -> Hashtbl.replace t.core_pkru core pkru
    | _ -> ()
  end
  else if
    String.equal name Tag.queue_push || String.equal name Tag.queue_push_front
  then (
    match (arg_int args "q", arg_int args "tid") with
    | Some q, Some tid ->
        let m = qmodel t q in
        if String.equal name Tag.queue_push then model_push m tid
        else model_push_front m tid;
        if arg_int args "lc" = Some 1 then begin
          let at =
            match arg_int args "at" with Some at -> at | None -> ts
          in
          if not (Hashtbl.mem t.lc_ready tid) then
            Hashtbl.add t.lc_ready tid at;
          if not (Hashtbl.mem t.gap_ready tid) then
            Hashtbl.add t.gap_ready tid at
        end
    | _ -> ())
  else if String.equal name Tag.queue_pop then (
    match (arg_int args "q", arg_int args "tid") with
    | Some q, Some tid -> (
        Hashtbl.remove t.lc_ready tid;
        let m = qmodel t q in
        match model_pop m with
        | Some (tid', _) when tid' = tid -> ()
        | Some (tid', _) ->
            violate t ~at:t.now ~invariant:"fifo"
              (Printf.sprintf "queue %d: popped tid %d, FIFO head was tid %d"
                 q tid tid')
        | None ->
            violate t ~at:t.now ~invariant:"fifo"
              (Printf.sprintf "queue %d: popped tid %d from an empty queue" q
                 tid))
    | _ -> ())
  else if String.equal name Tag.queue_remove then (
    match (arg_int args "q", arg_int args "tid") with
    | Some q, Some tid ->
        Hashtbl.remove t.lc_ready tid;
        Hashtbl.remove t.gap_ready tid;
        model_remove (qmodel t q) tid
    | _ -> ())
  else if String.equal name Tag.cluster_epoch then (
    (* Conservative-sync stride rule: an epoch may advance this machine
       at most [lookahead] past the last barrier. *)
    match (arg_int args "until", arg_int args "lookahead") with
    | Some until, Some lookahead ->
        if t.cl_lookahead > 0 && lookahead <> t.cl_lookahead then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf "cluster lookahead changed mid-run: %d -> %d"
               t.cl_lookahead lookahead);
        t.cl_lookahead <- lookahead;
        if until > t.cl_horizon + lookahead then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf
               "epoch to %d overruns barrier %d + lookahead %d" until
               t.cl_horizon lookahead);
        if until > t.cl_horizon then t.cl_horizon <- until
    | _ -> ())
  else if String.equal name Tag.cluster_deliver then (
    (* A cross-machine message delivered after the barrier (before this
       machine's next epoch) must land strictly after everything this
       machine already executed, and its link must honor the lookahead
       bound. *)
    match (arg_int args "sent", arg_int args "arrival") with
    | Some sent, Some arrival ->
        if arrival <= t.cl_horizon then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf
               "message (sent %d) delivered at %d, inside the executed \
                horizon %d"
               sent arrival t.cl_horizon);
        if t.cl_lookahead > 0 && arrival - sent < t.cl_lookahead then
          violate t ~at:ts ~invariant:"causality"
            (Printf.sprintf
               "message latency %d below cluster lookahead %d"
               (arrival - sent) t.cl_lookahead)
    | _ -> ())
  else if String.equal name Tag.gate_enter || String.equal name Tag.gate_leave
  then
    match (arg_int args "pkru", arg_int args "expected") with
    | Some pkru, Some expected ->
        if pkru <> expected then
          violate t ~at:ts ~invariant:"pkru"
            (Printf.sprintf
               "%s: core PKRU %#x differs from the image the crossing \
                installed (%#x)"
               name pkru expected);
        if String.equal name Tag.gate_leave then (
          (* The image restored on the way out must be the one the last
             dispatch published for this core. *)
          match core_of track with
          | Some core -> (
              match Hashtbl.find_opt t.core_pkru core with
              | Some published when published <> expected ->
                  violate t ~at:ts ~invariant:"pkru"
                    (Printf.sprintf
                       "gate.leave: core %d restored %#x but the last \
                        dispatch published %#x"
                       core expected published)
              | _ -> ())
          | None -> ())
    | _ -> ()

let handle t ev =
  t.events <- t.events + 1;
  (* Queue pops carry their entry's enqueue time as ts, so the running
     clock is the max event time seen, never wound back. *)
  let ts = Event.ts ev in
  if ts > t.now then t.now <- ts;
  (match ev with
  | Event.Instant { ts; track; name; args } -> on_instant t ~ts ~track ~name ~args
  | Event.Process _ | Event.Span_begin _ | Event.Span_end _ | Event.Counter _
  | Event.Flow _ ->
      ());
  if t.now - t.last_scan >= t.scan_every then begin
    t.last_scan <- t.now;
    scan t
  end

let sink t = Sink.of_fn (handle t)

let finalize ?machine ~elapsed t =
  if elapsed > t.now then t.now <- elapsed;
  scan t;
  match machine with
  | None -> ()
  | Some machine ->
      (* Cycle conservation: every core's busy + idle + switch time must
         add up to the wall clock. Injected stalls and jitters are all
         charged as overhead, so the identity survives chaos; the caller
         must have stopped the system (partial segments are charged at
         stop). *)
      Array.iteri
        (fun i core ->
          let total =
            Stats.Cycle_account.grand_total (Hw.Core.account core)
          in
          let drift = abs (total - elapsed) in
          if float_of_int drift > t.config.conservation_tol *. float_of_int elapsed
          then
            violate t ~at:t.now ~invariant:"conservation"
              (Printf.sprintf
                 "core %d: accounted %d ns of %d ns elapsed (drift %d, tol \
                  %.1f%%)"
                 i total elapsed drift
                 (100. *. t.config.conservation_tol)))
        (Hw.Machine.cores machine)

let pp_violation ppf v =
  Format.fprintf ppf "[%s] at=%d %s" v.invariant v.at v.detail
