(* Slot [id] holds [Some v] while [id] is bound. The option boxes are
   allocated once, at [set], so [find_opt] returns a stored value and
   allocates nothing. *)
type 'a t = { mutable slots : 'a option array; mutable count : int }

let max_id = (1 lsl 22) - 1

let create () = { slots = [||]; count = 0 }

let find_opt t id =
  if id >= 0 && id < Array.length t.slots then Array.unsafe_get t.slots id
  else None

let mem t id = match find_opt t id with Some _ -> true | None -> false

let set t id v =
  if id < 0 || id > max_id then
    invalid_arg (Printf.sprintf "Id_table.set: id %d outside [0, %d]" id max_id);
  let n = Array.length t.slots in
  if id >= n then begin
    let slots = Array.make (Int.max (id + 1) (Int.max 8 (2 * n))) None in
    Array.blit t.slots 0 slots 0 n;
    t.slots <- slots
  end;
  (match t.slots.(id) with None -> t.count <- t.count + 1 | Some _ -> ());
  t.slots.(id) <- Some v

let remove t id =
  match find_opt t id with
  | None -> ()
  | Some _ ->
      t.count <- t.count - 1;
      t.slots.(id) <- None

let length t = t.count

let fold f t acc =
  let acc = ref acc in
  Array.iteri
    (fun id slot -> match slot with Some v -> acc := f id v !acc | None -> ())
    t.slots;
  !acc

let iter f t = fold (fun id v () -> f id v) t ()

let ids t = fold (fun id _ acc -> id :: acc) t [] |> List.rev

let clear t =
  t.slots <- [||];
  t.count <- 0
