(* [last_n]/[last_e] are a one-entry lookup cache: the dispatch path
   checks the same task-map page on every context switch, so most
   lookups are a repeat of the previous one — an int compare instead of
   a hash probe. [last_n] = -1 means empty; any mapping mutation resets
   it. *)
type t = {
  pages : (int, Page.entry) Hashtbl.t;
  mutable last_n : int;
  mutable last_e : Page.entry;
}

let dummy_entry = { Page.prot = Page.prot_none; pkey = Pkey.of_int 0 }
let create () = { pages = Hashtbl.create 1024; last_n = -1; last_e = dummy_entry }

let page_span ~addr ~len =
  if len <= 0 then invalid_arg "Page_table: len must be positive";
  if addr < 0 then invalid_arg "Page_table: negative address";
  let first = Page.number_of_addr addr in
  let last = Page.number_of_addr (addr + len - 1) in
  (first, last)

let map_range t ~addr ~len ~prot ~pkey =
  let first, last = page_span ~addr ~len in
  t.last_n <- -1;
  for n = first to last do
    Hashtbl.replace t.pages n { Page.prot; pkey }
  done

let unmap_range t ~addr ~len =
  let first, last = page_span ~addr ~len in
  t.last_n <- -1;
  for n = first to last do
    Hashtbl.remove t.pages n
  done

let update_range name t ~addr ~len f =
  let first, last = page_span ~addr ~len in
  t.last_n <- -1;
  (* Validate the whole range before mutating anything, as the syscall
     would. *)
  for n = first to last do
    if not (Hashtbl.mem t.pages n) then
      invalid_arg
        (Printf.sprintf "%s: page %d (addr 0x%x) not mapped" name n
           (Page.base_of_number n))
  done;
  for n = first to last do
    let e = Hashtbl.find t.pages n in
    Hashtbl.replace t.pages n (f e)
  done

let protect_range t ~addr ~len ~prot =
  update_range "Page_table.protect_range" t ~addr ~len (fun e ->
      { e with Page.prot })

let pkey_protect_range t ~addr ~len ~pkey =
  update_range "Page_table.pkey_protect_range" t ~addr ~len (fun e ->
      { e with Page.pkey })

let find_entry t n =
  if t.last_n = n then Some t.last_e
  else
    match Hashtbl.find_opt t.pages n with
    | Some e as r ->
        t.last_n <- n;
        t.last_e <- e;
        r
    | None -> None

let lookup t ~addr = find_entry t (Page.number_of_addr addr)

let access t ~pkru ~addr kind =
  match lookup t ~addr with
  | None -> Error Page.Not_mapped
  | Some entry -> Page.check entry ~pkru kind

let access_range t ~pkru ~addr ~len kind =
  let first, last = page_span ~addr ~len in
  let rec go n =
    if n > last then Ok ()
    else
      let page_addr = Int.max addr (Page.base_of_number n) in
      match access t ~pkru ~addr:page_addr kind with
      | Ok () -> go (n + 1)
      | Error f -> Error (page_addr, f)
  in
  go first

let mapped_pages t = Hashtbl.length t.pages
