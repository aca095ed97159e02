module S = Vessel_sched
module U = Vessel_uprocess

(* Copying one object: read + write every line, ~400ns of base work per
   4 KiB object at full cache hit; the executor adds the miss penalties
   measured against the footprint. *)
let per_object_ns = 400

type t = {
  mutable copied : int;
  mutable thread : U.Uthread.t option;
}

let make ~sys ~app_id ~name ~region:(base, len) ?(object_bytes = 4096)
    ?(objects_per_batch = 16) ?(park_every = 4) () =
  if len < object_bytes then invalid_arg "Objcopy.make: region too small";
  sys.S.Sched_intf.add_app
    { S.Sched_intf.id = app_id; name; class_ = S.Sched_intf.Latency_critical };
  let t = { copied = 0; thread = None } in
  let cursor = ref 0 in
  let batches = ref 0 in
  let step ~now:_ =
    if park_every > 0 && !batches >= park_every then begin
      batches := 0;
      U.Uthread.Park
    end
    else begin
      incr batches;
      let batch_bytes = objects_per_batch * object_bytes in
      let start = base + !cursor in
      let span = Int.min batch_bytes (len - !cursor) in
      cursor := (!cursor + batch_bytes) mod (len - (len mod object_bytes));
      U.Uthread.Mem_work
        {
          ns = objects_per_batch * per_object_ns;
          (* read + write traffic *)
          bytes = 2 * batch_bytes;
          footprint = Some (start, span);
          on_complete =
            Some (fun _ -> t.copied <- t.copied + objects_per_batch);
        }
    end
  in
  let th = sys.S.Sched_intf.add_worker ~app_id ~name:(name ^ "-w0") ~step in
  t.thread <- Some th;
  t

let copied_objects t = t.copied

let thread t = match t.thread with Some th -> th | None -> assert false

let completion_time_ns t = U.Uthread.total_app_ns (thread t)
