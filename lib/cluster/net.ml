(* Typed cross-machine links: per-(source, destination) outboxes during
   an epoch, handed to destination inboxes at the barrier, drained by
   each destination's own next epoch job. See net.mli for the causality
   argument. *)

module Sim = Vessel_engine.Sim
module Obs = Vessel_obs

type 'a msg = { sent_at : int; payload : 'a }

type 'a t = {
  cluster : Cluster.t;
  lat : int;
  name : string;
  (* Maps a payload to a request-flow id (0 = none): deliveries then emit
     Perfetto flow steps so cross-machine causality renders as arrows. *)
  flow_of : ('a -> int) option;
  (* Per-destination receive handlers, installed at setup time. *)
  recv : (now:int -> src:int -> 'a -> unit) option array;
  (* outbox.(src).(dst): the running epoch's sends, newest first;
     sending.(src) is set once row src holds any. Only src's job writes
     row src during an epoch. *)
  outbox : 'a msg list array array;
  sending : bool array;
  (* inbox.(dst).(src): the last epoch's sends, handed over at the
     barrier (the Pool.map join orders every job before it) and emptied
     by dst's next job or the final drain of run_until; inbound.(dst) is
     set while row dst holds any. Only the barrier and dst touch row
     dst, never at the same time. *)
  inbox : 'a msg list array array;
  inbound : bool array;
  (* n_sent.(src) / n_delivered.(dst): one writer per cell. *)
  n_sent : int array;
  n_delivered : int array;
}

let latency t = t.lat
let sent t = Array.fold_left ( + ) 0 t.n_sent
let delivered t = Array.fold_left ( + ) 0 t.n_delivered

(* Empty senders and receivers cost one flag test each, so an idle
   link adds almost nothing to the barrier or to an epoch job. *)
let stage t =
  let n = Array.length t.outbox in
  for src = 0 to n - 1 do
    if t.sending.(src) then begin
      t.sending.(src) <- false;
      let row = t.outbox.(src) in
      for dst = 0 to n - 1 do
        match row.(dst) with
        | [] -> ()
        | msgs ->
            row.(dst) <- [];
            t.inbox.(dst).(src) <- msgs;
            t.inbound.(dst) <- true
      done
    end
  done

let deliver t ~at ~sim ~recv ~src m =
  let arrival = m.sent_at + t.lat in
  (* The delivery probe lands in the destination machine's unit (its
     checker sees it, its trace shows it) stamped at the barrier — the
     moment the message became visible to that machine. The drain runs
     inside that machine's scope, so the probe gate read here is its
     own. *)
  if !Obs.Probe.on then begin
    Obs.Probe.instant ~ts:at ~track:Obs.Track.Engine
      ~name:Obs.Tag.cluster_deliver
      ~args:
        [
          ("link", Obs.Event.Str t.name);
          ("src", Obs.Event.Int src);
          ("sent", Obs.Event.Int m.sent_at);
          ("arrival", Obs.Event.Int arrival);
        ]
      ();
    match t.flow_of with
    | Some f ->
        let id = f m.payload in
        if id > 0 then
          Obs.Probe.flow ~ts:at ~track:Obs.Track.Engine ~name:Obs.Tag.req_flow
            ~id ~dir:Obs.Event.Flow_step
    | None -> ()
  end;
  let payload = m.payload in
  ignore
    (Sim.schedule sim ~at:arrival (fun sim ->
         recv ~now:(Sim.now sim) ~src payload))

(* Source order, then send order: the per-destination subsequence of a
   serial flush over all senders. *)
let drain t dst ~at =
  if t.inbound.(dst) then begin
    t.inbound.(dst) <- false;
    let row = t.inbox.(dst) in
    for src = 0 to Array.length row - 1 do
      match row.(src) with
      | [] -> ()
      | msgs ->
          row.(src) <- [];
          let recv =
            match t.recv.(dst) with
            | Some f -> f
            | None -> invalid_arg "Net: message for a machine with no receiver"
          in
          let sim = Cluster.sim t.cluster dst in
          t.n_delivered.(dst) <- t.n_delivered.(dst) + List.length msgs;
          List.iter (deliver t ~at ~sim ~recv ~src) (List.rev msgs)
    done
  end

let link ?(name = "link") ?latency ?flow_of cluster =
  let la = Cluster.lookahead cluster in
  let lat = Option.value latency ~default:la in
  if lat < la then
    invalid_arg
      (Printf.sprintf
         "Net.link %s: latency %d below cluster lookahead %d breaks causality"
         name lat la);
  let n = Cluster.machines cluster in
  let t =
    {
      cluster;
      lat;
      name;
      flow_of;
      recv = Array.make n None;
      outbox = Array.init n (fun _ -> Array.make n []);
      sending = Array.make n false;
      inbox = Array.init n (fun _ -> Array.make n []);
      inbound = Array.make n false;
      n_sent = Array.make n 0;
      n_delivered = Array.make n 0;
    }
  in
  Cluster.register_link cluster ~stage:(fun () -> stage t) ~drain:(drain t);
  t

let on_receive t ~machine f =
  (match t.recv.(machine) with
  | Some _ -> invalid_arg "Net.on_receive: handler already installed"
  | None -> ());
  t.recv.(machine) <- Some f

let send t ~src ~dst payload =
  (match t.recv.(dst) with
  | None -> invalid_arg "Net.send: destination has no receive handler"
  | Some _ -> ());
  let sent_at = Sim.now (Cluster.sim t.cluster src) in
  let row = t.outbox.(src) in
  row.(dst) <- { sent_at; payload } :: row.(dst);
  t.sending.(src) <- true;
  t.n_sent.(src) <- t.n_sent.(src) + 1
