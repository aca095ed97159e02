(* The 64-bit state lives unboxed in 8 bytes: a [mutable int64] field
   would box every new state and pay [caml_modify] to store it. *)
type t = bytes

external get64 : bytes -> int -> int64 = "%caml_bytes_get64u"
external set64 : bytes -> int -> int64 -> unit = "%caml_bytes_set64u"

(* splitmix64 constants, Steele et al., "Fast splittable pseudorandom
   number generators" (OOPSLA'14). *)
let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set64 t 0 s;
  t

let create ~seed = of_state (mix (Int64.of_int seed))

(* Advance and return the next output; inlined into every draw so the
   int64 intermediates stay in registers. *)
let[@inline] next t =
  let s = Int64.add (get64 t 0) golden_gamma in
  set64 t 0 s;
  mix s

let int64 t = next t

let split t = of_state (next t)

let copy t = Bytes.copy t

let bits t = Int64.to_int (Int64.shift_right_logical (next t) 2)

(* Rejection sampling to avoid modulo bias. *)
let rec below t bound =
  let r = bits t in
  let v = r mod bound in
  if r - v > max_int - bound + 1 then below t bound else v

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  below t bound

let float t =
  (* 53 uniform bits into [0,1). *)
  let r = Int64.to_int (Int64.shift_right_logical (next t) 11) in
  float_of_int r /. 9007199254740992.0

let bool t = Int64.logand (next t) 1L = 1L

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
