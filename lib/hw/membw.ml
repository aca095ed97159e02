module Time = Vessel_engine.Time
module Id_table = Vessel_engine.Id_table

type t = {
  capacity : float; (* bytes per ns *)
  window : Time.t;
  totals : int ref Id_table.t; (* cumulative per app *)
  mutable window_start : Time.t;
  mutable window_bytes : int;
  mutable prev_utilization : float;
}

let create ?(capacity_bytes_per_ns = 40.) ?(window = 100_000) () =
  if capacity_bytes_per_ns <= 0. then
    invalid_arg "Membw.create: capacity must be positive";
  if window <= 0 then invalid_arg "Membw.create: window must be positive";
  {
    capacity = capacity_bytes_per_ns;
    window;
    totals = Id_table.create ();
    window_start = 0;
    window_bytes = 0;
    prev_utilization = 0.;
  }

let roll t ~at =
  while at >= t.window_start + t.window do
    let span = float_of_int t.window in
    t.prev_utilization <- float_of_int t.window_bytes /. (t.capacity *. span);
    t.window_bytes <- 0;
    t.window_start <- t.window_start + t.window
  done

let consume t ~app ~bytes ~at =
  if bytes < 0 then invalid_arg "Membw.consume: negative bytes";
  roll t ~at;
  t.window_bytes <- t.window_bytes + bytes;
  match Id_table.find_opt t.totals app with
  | Some c -> c := !c + bytes
  | None -> Id_table.set t.totals app (ref bytes)

let congestion t = Float.max 1. t.prev_utilization
let utilization t = t.prev_utilization

let total_bytes t ~app =
  match Id_table.find_opt t.totals app with Some c -> !c | None -> 0

let achieved t ~app ~wall =
  if wall <= 0 then 0. else float_of_int (total_bytes t ~app) /. float_of_int wall

let capacity t = t.capacity

let apps t = Id_table.ids t.totals
