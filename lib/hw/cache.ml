type t = {
  line : int;
  assoc : int;
  nsets : int;
  tags : int array; (* nsets * assoc, -1 = invalid *)
  stamps : int array; (* LRU stamps parallel to tags *)
  mutable tick : int;
  mutable accesses : int;
  mutable misses : int;
}

let create ?(line = 64) ?(assoc = 16) ?(capacity = 2 * 1024 * 1024) () =
  if line <= 0 || assoc <= 0 || capacity <= 0 then
    invalid_arg "Cache.create: parameters must be positive";
  if capacity mod (line * assoc) <> 0 then
    invalid_arg "Cache.create: capacity must be a multiple of line*assoc";
  let nsets = capacity / (line * assoc) in
  {
    line;
    assoc;
    nsets;
    tags = Array.make (nsets * assoc) (-1);
    stamps = Array.make (nsets * assoc) 0;
    tick = 0;
    accesses = 0;
    misses = 0;
  }

(* Touch one line of set [set] at time [tick], in one pass over the
   set and without allocating: a way holding [tag] is a hit (its stamp
   refreshed); otherwise the first invalid way, else the least recently
   used one (first minimum stamp), takes the line. True on a hit. *)
let[@inline] touch t ~set ~tag ~tick =
  let tags = t.tags and stamps = t.stamps in
  let base = set * t.assoc in
  let stop = base + t.assoc in
  let i = ref base and hit = ref (-1) and inv = ref (-1) and lru = ref base in
  while !i < stop do
    let tg = Array.unsafe_get tags !i in
    if tg = tag then begin
      hit := !i;
      i := stop
    end
    else begin
      if tg < 0 then (if !inv < 0 then inv := !i)
      else if Array.unsafe_get stamps !i < Array.unsafe_get stamps !lru then
        lru := !i;
      incr i
    end
  done;
  if !hit >= 0 then begin
    Array.unsafe_set stamps !hit tick;
    true
  end
  else begin
    let v = if !inv >= 0 then !inv else !lru in
    Array.unsafe_set tags v tag;
    Array.unsafe_set stamps v tick;
    false
  end

let access t addr =
  if addr < 0 then invalid_arg "Cache.access: negative address";
  t.accesses <- t.accesses + 1;
  t.tick <- t.tick + 1;
  let block = addr / t.line in
  if touch t ~set:(block mod t.nsets) ~tag:(block / t.nsets) ~tick:t.tick then
    `Hit
  else begin
    t.misses <- t.misses + 1;
    `Miss
  end

(* Consecutive lines walk the sets in order, so the set index steps by
   one and the tag bumps when it wraps: two divisions per run, not three
   per line, and no power-of-two sizes assumed. *)
let access_run t ?(word_accesses = 1) ~addr ~len () =
  if len > 0 then begin
    if addr < 0 then invalid_arg "Cache.access_run: negative address";
    let first = addr / t.line and last = (addr + len - 1) / t.line in
    let lines = last - first + 1 in
    let extra = if word_accesses > 1 then word_accesses - 1 else 0 in
    let nsets = t.nsets in
    let set = ref (first mod nsets) and tag = ref (first / nsets) in
    let tick = ref t.tick and misses = ref 0 in
    for _ = 1 to lines do
      incr tick;
      if not (touch t ~set:!set ~tag:!tag ~tick:!tick) then incr misses;
      tick := !tick + extra;
      incr set;
      if !set = nsets then begin
        set := 0;
        incr tag
      end
    done;
    t.tick <- !tick;
    t.accesses <- t.accesses + (lines * (1 + extra));
    t.misses <- t.misses + !misses
  end

let flush t =
  Array.fill t.tags 0 (Array.length t.tags) (-1);
  Array.fill t.stamps 0 (Array.length t.stamps) 0

let accesses t = t.accesses
let misses t = t.misses

let miss_rate t =
  if t.accesses = 0 then 0. else float_of_int t.misses /. float_of_int t.accesses

let reset_counters t =
  t.accesses <- 0;
  t.misses <- 0

let sets t = t.nsets
let capacity t = t.nsets * t.assoc * t.line
