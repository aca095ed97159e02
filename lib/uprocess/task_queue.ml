module Id_table = Vessel_engine.Id_table

type entry = {
  thread : Uthread.t;
  at : Vessel_engine.Time.t;
  mutable dead : bool;
}

type t = {
  q : entry Queue.t;
  mutable front : entry list; (* prepended entries, newest first *)
  present : entry Id_table.t; (* tid -> live entry *)
  id : int; (* >= 0: queue operations are probe-visible under this id *)
}

let create ?(id = -1) () =
  { q = Queue.create (); front = []; present = Id_table.create (); id }

(* Queue-op instants feed the runtime invariant checker (FIFO order per
   queue, LC starvation). Only queues given an explicit deterministic id
   emit them, so ad-hoc queues cost nothing and traces stay identical at
   any -j. Pop/remove events carry the entry's enqueue time as their
   timestamp (the queue has no clock of its own); consumers order by
   arrival, not ts. *)
let probe t name e =
  if t.id >= 0 && !Vessel_obs.Probe.on then
    Vessel_obs.Probe.instant ~ts:e.at ~track:Vessel_obs.Track.Sched ~name
      ~args:
        [
          ("q", Vessel_obs.Event.Int t.id);
          ("tid", Vessel_obs.Event.Int (Uthread.tid e.thread));
          ( "lc",
            Vessel_obs.Event.Int
              (match Uthread.priority e.thread with
              | Uthread.Latency_critical -> 1
              | Uthread.Best_effort -> 0) );
          ("at", Vessel_obs.Event.Int e.at);
          (* request the thread is carrying, 0 when idle — lets queue-op
             instants be joined against req.* attribution stamps *)
          ("rid", Vessel_obs.Event.Int (Vessel_obs.Request.rid (Uthread.ctx e.thread)));
        ]
      ()

let add_present t th e =
  let tid = Uthread.tid th in
  if Id_table.mem t.present tid then
    invalid_arg (Printf.sprintf "Task_queue: tid %d already queued" tid);
  Id_table.set t.present tid e

let push t th ~now =
  let e = { thread = th; at = now; dead = false } in
  add_present t th e;
  Queue.push e t.q;
  probe t Vessel_obs.Tag.queue_push e

let push_front t th ~now =
  let e = { thread = th; at = now; dead = false } in
  add_present t th e;
  t.front <- e :: t.front;
  probe t Vessel_obs.Tag.queue_push_front e

(* Discard lazily-removed entries at the head of both stores. *)
let rec settle t =
  match t.front with
  | e :: rest when e.dead ->
      t.front <- rest;
      settle t
  | _ :: _ -> ()
  | [] ->
      if (not (Queue.is_empty t.q)) && (Queue.peek t.q).dead then begin
        ignore (Queue.pop t.q);
        settle t
      end

let take t =
  settle t;
  match t.front with
  | e :: rest ->
      t.front <- rest;
      Some e
  | [] -> Queue.take_opt t.q

let pop t =
  match take t with
  | None -> None
  | Some e ->
      Id_table.remove t.present (Uthread.tid e.thread);
      probe t Vessel_obs.Tag.queue_pop e;
      Some (e.thread, e.at)

let peek t =
  settle t;
  match t.front with
  | e :: _ -> Some (e.thread, e.at)
  | [] -> (
      match Queue.peek_opt t.q with
      | Some e -> Some (e.thread, e.at)
      | None -> None)

let mem t th = Id_table.mem t.present (Uthread.tid th)

let remove t th =
  match Id_table.find_opt t.present (Uthread.tid th) with
  | Some e ->
      e.dead <- true;
      Id_table.remove t.present (Uthread.tid th);
      probe t Vessel_obs.Tag.queue_remove e;
      true
  | None -> false

let length t = Id_table.length t.present

let is_empty t = length t = 0

(* Reads the head in place: [peek] would allocate its result. *)
let head_delay t ~now =
  settle t;
  match t.front with
  | e :: _ -> Int.max 0 (now - e.at)
  | [] -> if Queue.is_empty t.q then 0 else Int.max 0 (now - (Queue.peek t.q).at)

let iter t f =
  List.iter (fun e -> if not e.dead then f e.thread) t.front;
  Queue.iter (fun e -> if not e.dead then f e.thread) t.q

let to_list t =
  let acc = ref [] in
  iter t (fun th -> acc := th :: !acc);
  List.rev !acc
