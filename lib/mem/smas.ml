module Hw = Vessel_hw
module Page = Hw.Page
module Page_table = Hw.Page_table
module Pkey = Hw.Pkey
module Pkru = Hw.Pkru

type t = {
  layout : Layout.t;
  pt : Page_table.t;
  store : (int, bytes) Hashtbl.t; (* page number -> contents *)
  attached : (int, unit) Hashtbl.t; (* slot -> data mapped *)
  (* One-entry cache over [store]: the message-pipe task map keeps the
     per-switch path on the same page, so most lookups repeat the last
     one. [-1] = empty; [release_range] resets it. *)
  mutable last_n : int;
  mutable last_b : bytes;
}

let map_region pt (r : Region.t) ~prot =
  Page_table.map_range pt ~addr:r.Region.base ~len:r.Region.len ~prot
    ~pkey:r.Region.pkey

let create layout =
  let pt = Page_table.create () in
  map_region pt (Layout.runtime_data layout) ~prot:Page.prot_rw;
  map_region pt (Layout.runtime_text layout) ~prot:Page.prot_x;
  map_region pt (Layout.message_pipe layout) ~prot:Page.prot_rw;
  {
    layout;
    pt;
    store = Hashtbl.create 1024;
    attached = Hashtbl.create 8;
    last_n = -1;
    last_b = Bytes.empty;
  }

let layout t = t.layout
let page_table t = t.pt

let attach_slot_data t i =
  if not (Hashtbl.mem t.attached i) then begin
    map_region t.pt (Layout.slot_data t.layout i) ~prot:Page.prot_rw;
    Hashtbl.add t.attached i ()
  end

let pkru_for_slot t i =
  ignore (Layout.slot_pkey t.layout i);
  Pkru.make
    [
      (Pkey.uprocess_key i, Pkru.Read_write);
      (Pkey.message_pipe, Pkru.Read_only);
    ]

(* A constant: the runtime's PKRU value is a plain int, and this sits on
   the per-deschedule path — rebuilding the grants list there allocated
   ~100 minor words per context switch. *)
let runtime_pkru_value =
  let grants =
    List.init (Pkey.count - 1) (fun k -> (Pkey.of_int (k + 1), Pkru.Read_write))
  in
  Pkru.make grants

let pkru_runtime _t = runtime_pkru_value

(* --- byte store --- *)

let page_bytes t n =
  if t.last_n = n then t.last_b
  else begin
    let b =
      match Hashtbl.find_opt t.store n with
      | Some b -> b
      | None ->
          let b = Bytes.make Page.size '\000' in
          Hashtbl.add t.store n b;
          b
    in
    t.last_n <- n;
    t.last_b <- b;
    b
  end

let copy_out t ~addr ~len =
  let out = Bytes.create len in
  let rec go off =
    if off < len then begin
      let a = addr + off in
      let n = Page.number_of_addr a in
      let in_page = a - Page.base_of_number n in
      let chunk = Int.min (Page.size - in_page) (len - off) in
      Bytes.blit (page_bytes t n) in_page out off chunk;
      go (off + chunk)
    end
  in
  go 0;
  out

let copy_in t ~addr src =
  let len = Bytes.length src in
  let rec go off =
    if off < len then begin
      let a = addr + off in
      let n = Page.number_of_addr a in
      let in_page = a - Page.base_of_number n in
      let chunk = Int.min (Page.size - in_page) (len - off) in
      Bytes.blit src off (page_bytes t n) in_page chunk;
      go (off + chunk)
    end
  in
  go 0

(* --- checked accesses --- *)

let read t ~pkru ~addr ~len =
  if len <= 0 then invalid_arg "Smas.read: len must be positive";
  match Page_table.access_range t.pt ~pkru ~addr ~len Page.Read with
  | Error e -> Error e
  | Ok () -> Ok (copy_out t ~addr ~len)

let write t ~pkru ~addr data =
  let len = Bytes.length data in
  if len = 0 then Ok ()
  else
    match Page_table.access_range t.pt ~pkru ~addr ~len Page.Write with
    | Error e -> Error e
    | Ok () ->
        copy_in t ~addr data;
        Ok ()

let fetch t ~addr ~len =
  if len <= 0 then invalid_arg "Smas.fetch: len must be positive";
  Page_table.access_range t.pt ~pkru:Pkru.all_denied ~addr ~len Page.Fetch

let release_range t ~addr ~len =
  if len > 0 then begin
    t.last_n <- -1;
    t.last_b <- Bytes.empty;
    let first = Page.number_of_addr addr
    and last = Page.number_of_addr (addr + len - 1) in
    Hashtbl.filter_map_inplace
      (fun n b -> if n >= first && n <= last then None else Some b)
      t.store;
    (* The range may be partially mapped; unmapping tolerates holes. *)
    Page_table.unmap_range t.pt ~addr ~len
  end

let detach_slot_data t i = Hashtbl.remove t.attached i

(* --- privileged backdoor --- *)

let require_mapped t ~addr ~len op =
  let first = Page.number_of_addr addr
  and last = Page.number_of_addr (addr + len - 1) in
  for n = first to last do
    if Page_table.lookup t.pt ~addr:(Page.base_of_number n) = None then
      invalid_arg (Printf.sprintf "Smas.%s: page at 0x%x not mapped" op
                     (Page.base_of_number n))
  done

let priv_write t ~addr data =
  let len = Bytes.length data in
  if len > 0 then begin
    require_mapped t ~addr ~len "priv_write";
    copy_in t ~addr data
  end

let priv_read t ~addr ~len =
  if len <= 0 then invalid_arg "Smas.priv_read: len must be positive";
  require_mapped t ~addr ~len "priv_read";
  copy_out t ~addr ~len
