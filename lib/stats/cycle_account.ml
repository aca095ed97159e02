module Time = Vessel_engine.Time
module Id_table = Vessel_engine.Id_table

type category = App of int | Runtime | Kernel | Idle

type t = {
  apps : int ref Id_table.t; (* app id -> ns; bound once charged *)
  mutable runtime : int;
  mutable kernel : int;
  mutable idle : int;
}

let create () =
  { apps = Id_table.create (); runtime = 0; kernel = 0; idle = 0 }

let app_cell t id =
  match Id_table.find_opt t.apps id with
  | Some c -> c
  | None ->
      let c = ref 0 in
      Id_table.set t.apps id c;
      c

let charge_app t id d =
  if d < 0 then invalid_arg "Cycle_account.charge: negative duration";
  let c = app_cell t id in
  c := !c + d

let charge t cat d =
  if d < 0 then invalid_arg "Cycle_account.charge: negative duration";
  match cat with
  | App id -> charge_app t id d
  | Runtime -> t.runtime <- t.runtime + d
  | Kernel -> t.kernel <- t.kernel + d
  | Idle -> t.idle <- t.idle + d

let total t = function
  | App id -> ( match Id_table.find_opt t.apps id with Some c -> !c | None -> 0)
  | Runtime -> t.runtime
  | Kernel -> t.kernel
  | Idle -> t.idle

let app_total t = Id_table.fold (fun _ c acc -> acc + !c) t.apps 0

let app_ids t = Id_table.ids t.apps

let grand_total t = app_total t + t.runtime + t.kernel + t.idle

let cores_worth t cat ~wall =
  if wall <= 0 then 0. else float_of_int (total t cat) /. float_of_int wall

let merge ~into src =
  Id_table.iter (fun id c -> charge_app into id !c) src.apps;
  into.runtime <- into.runtime + src.runtime;
  into.kernel <- into.kernel + src.kernel;
  into.idle <- into.idle + src.idle

let clear t =
  Id_table.clear t.apps;
  t.runtime <- 0;
  t.kernel <- 0;
  t.idle <- 0

let pp fmt t =
  Format.fprintf fmt "app=%a runtime=%a kernel=%a idle=%a" Time.pp
    (app_total t) Time.pp t.runtime Time.pp t.kernel Time.pp t.idle
