(* Mapped pages as sorted, disjoint, inclusive page-number ranges,
   each with the one entry all its pages share. Adjacent ranges with
   equal entries are merged, so a table holds tens of ranges however
   many pages it maps. Mutations rebuild the array; they run at set-up
   and teardown only.

   [c_lo]/[c_hi]/[c_e] are a one-entry lookup cache holding the last
   range hit: the dispatch path checks the same task-map page on every
   context switch, so most lookups are two int compares. [c_lo] >
   [c_hi] means empty; any mutation resets it. *)
type range = { lo : int; hi : int; e : Page.entry }

type t = {
  mutable ranges : range array;
  mutable pages : int;
  mutable c_lo : int;
  mutable c_hi : int;
  mutable c_e : Page.entry option;
}

let create () = { ranges = [||]; pages = 0; c_lo = 0; c_hi = -1; c_e = None }

let page_span ~addr ~len =
  if len <= 0 then invalid_arg "Page_table: len must be positive";
  if addr < 0 then invalid_arg "Page_table: negative address";
  let first = Page.number_of_addr addr in
  let last = Page.number_of_addr (addr + len - 1) in
  (first, last)

(* Index of the first range ending at or after page [n]. *)
let lower_bound t n =
  let lo = ref 0 and hi = ref (Array.length t.ranges) in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if t.ranges.(mid).hi < n then lo := mid + 1 else hi := mid
  done;
  !lo

let same_entry (a : Page.entry) (b : Page.entry) =
  a.prot.read = b.prot.read && a.prot.write = b.prot.write
  && a.prot.exec = b.prot.exec
  && Pkey.to_int a.pkey = Pkey.to_int b.pkey

(* Replace pages [a..b] with [inside], a sorted list of disjoint ranges
   within [a..b]; pages of [a..b] that [inside] leaves out become
   unmapped. Ranges straddling [a] or [b] keep their outer parts. *)
let rewrite t a b inside =
  let acc = ref [] in
  let push r =
    match !acc with
    | p :: rest when p.hi + 1 = r.lo && same_entry p.e r.e ->
        acc := { p with hi = r.hi } :: rest
    | _ -> acc := r :: !acc
  in
  let inserted = ref false in
  let insert () =
    if not !inserted then begin
      inserted := true;
      List.iter push inside
    end
  in
  Array.iter
    (fun r ->
      if r.hi < a then push r
      else begin
        if r.lo < a then push { r with hi = a - 1 };
        insert ();
        if r.lo > b then push r
        else if r.hi > b then push { r with lo = b + 1 }
      end)
    t.ranges;
  insert ();
  t.ranges <- Array.of_list (List.rev !acc);
  t.pages <- Array.fold_left (fun s r -> s + (r.hi - r.lo + 1)) 0 t.ranges;
  t.c_lo <- 0;
  t.c_hi <- -1;
  t.c_e <- None

let map_range t ~addr ~len ~prot ~pkey =
  let lo, hi = page_span ~addr ~len in
  rewrite t lo hi [ { lo; hi; e = { Page.prot; pkey } } ]

let unmap_range t ~addr ~len =
  let lo, hi = page_span ~addr ~len in
  rewrite t lo hi []

let update_range name t ~addr ~len f =
  let a, b = page_span ~addr ~len in
  (* Validate the whole range before mutating anything, as the syscall
     would: the first page of [a..b] no range covers is the error. *)
  let i = ref (lower_bound t a) and next = ref a and inside = ref [] in
  while !next <= b do
    if !i >= Array.length t.ranges || t.ranges.(!i).lo > !next then
      invalid_arg
        (Printf.sprintf "%s: page %d (addr 0x%x) not mapped" name !next
           (Page.base_of_number !next));
    let r = t.ranges.(!i) in
    let hi = Int.min b r.hi in
    inside := { lo = !next; hi; e = f r.e } :: !inside;
    next := hi + 1;
    incr i
  done;
  rewrite t a b (List.rev !inside)

let protect_range t ~addr ~len ~prot =
  update_range "Page_table.protect_range" t ~addr ~len (fun e ->
      { e with Page.prot })

let pkey_protect_range t ~addr ~len ~pkey =
  update_range "Page_table.pkey_protect_range" t ~addr ~len (fun e ->
      { e with Page.pkey })

let find_entry t n =
  if t.c_lo <= n && n <= t.c_hi then t.c_e
  else
    let i = lower_bound t n in
    if i = Array.length t.ranges || t.ranges.(i).lo > n then None
    else begin
      let r = t.ranges.(i) in
      t.c_lo <- r.lo;
      t.c_hi <- r.hi;
      t.c_e <- Some r.e;
      t.c_e
    end

let lookup t ~addr = find_entry t (Page.number_of_addr addr)

let access t ~pkru ~addr kind =
  match lookup t ~addr with
  | None -> Error Page.Not_mapped
  | Some entry -> Page.check entry ~pkru kind

(* Every page of a range shares one entry, so one check per range
   decides all of its pages: after a passing [access], the cache holds
   that page's range and the walk resumes past its end. *)
let access_range t ~pkru ~addr ~len kind =
  let first, last = page_span ~addr ~len in
  let rec go n =
    if n > last then Ok ()
    else
      let page_addr = Int.max addr (Page.base_of_number n) in
      match access t ~pkru ~addr:page_addr kind with
      | Ok () -> go (t.c_hi + 1)
      | Error f -> Error (page_addr, f)
  in
  go first

let mapped_pages t = t.pages
