type t =
  | Constant of float
  | Uniform of { lo : float; hi : float }
  | Exponential of { mean : float }
  | Lognormal of { mu : float; sigma : float }
  | Bimodal of { p : float; lo : float; hi : float }
  | Pareto of { shape : float; scale : float }
  | Mixture of { parts : (float * t) list; total : float }
  | Shifted of float * t
  | Zipf of { cdf : float array; guide : int array; mean_rank : float }

let constant x = Constant x

let uniform ~lo ~hi =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  Uniform { lo; hi }

let exponential ~mean =
  if mean <= 0. then invalid_arg "Dist.exponential: mean must be positive";
  Exponential { mean }

let lognormal ~mu ~sigma =
  if sigma < 0. then invalid_arg "Dist.lognormal: sigma must be >= 0";
  Lognormal { mu; sigma }

(* Standard normal quantile for p = 0.999: z such that Phi(z) = 0.999. *)
let z_p999 = 3.090232306167813

let lognormal_of_quantiles ~p50 ~p999 =
  if p50 <= 0. || p999 <= p50 then
    invalid_arg "Dist.lognormal_of_quantiles: need 0 < p50 < p999";
  let mu = Float.log p50 in
  let sigma = (Float.log p999 -. mu) /. z_p999 in
  Lognormal { mu; sigma }

let bimodal ~p ~lo ~hi =
  if p < 0. || p > 1. then invalid_arg "Dist.bimodal: p must be in [0,1]";
  Bimodal { p; lo; hi }

let pareto ~shape ~scale =
  if shape <= 0. || scale <= 0. then
    invalid_arg "Dist.pareto: shape and scale must be positive";
  Pareto { shape; scale }

let mixture parts =
  if parts = [] then invalid_arg "Dist.mixture: empty";
  if List.exists (fun (w, _) -> w < 0.) parts then
    invalid_arg "Dist.mixture: negative weight";
  (* Folded once, here, left to right: the sum every draw scales by. *)
  Mixture
    { parts; total = List.fold_left (fun acc (w, _) -> acc +. w) 0. parts }

let shifted off d = Shifted (off, d)

(* Guide table resolution: [guide.(j)] is the smallest rank whose [cdf]
   reaches [j / 2^guide_bits] (clamped to [n-1]), so a draw [u] only
   searches between [guide.(j)] and [guide.(j+1)] for [j = floor (u *
   2^guide_bits)]. Scaling by a power of two is exact, so the bracket
   always holds the rank a full binary search would return. *)
let guide_bits = 16
let guide_scale = Float.of_int (1 lsl guide_bits)

let build_zipf ~s ~n =
  (* One [Float.pow] per rank, kept in [w] so the CDF and the mean reuse
     it; each sum runs in the same order as the two-pass original, so
     both come out bit-identical to it. *)
  let w = Float.Array.init n (fun r -> 1. /. Float.pow (float_of_int (r + 1)) s) in
  let cdf = Array.make n 0. in
  let acc = ref 0. in
  for r = 0 to n - 1 do
    acc := !acc +. Float.Array.get w r;
    cdf.(r) <- !acc
  done;
  let total = !acc in
  let mean_rank = ref 0. in
  for r = 0 to n - 1 do
    cdf.(r) <- cdf.(r) /. total;
    mean_rank := !mean_rank +. (float_of_int r *. (Float.Array.get w r /. total))
  done;
  let guide = Array.make ((1 lsl guide_bits) + 1) (n - 1) in
  let r = ref 0 in
  for j = 0 to 1 lsl guide_bits do
    let threshold = Float.of_int j /. guide_scale in
    while !r < n - 1 && cdf.(!r) < threshold do
      incr r
    done;
    guide.(j) <- !r
  done;
  Zipf { cdf; guide; mean_rank = !mean_rank }

(* Zipf tables are O(n) to build and immutable, so equal (s, n) share one
   value per process. Module-level state shared by sweep domains: every
   access holds [zipf_lock], a value is built at most once, and it is a
   pure function of its key, so no output depends on which domain built
   it. Keyed on the bits of [s] so the match is exact. *)
let zipf_memo : (int64 * int, t) Hashtbl.t = Hashtbl.create 4
let zipf_lock = Mutex.create ()

let zipf ~s ~n =
  if n <= 0 then invalid_arg "Dist.zipf: n must be positive";
  if s < 0. then invalid_arg "Dist.zipf: s must be >= 0";
  let key = (Int64.bits_of_float s, n) in
  Mutex.protect zipf_lock (fun () ->
      match Hashtbl.find_opt zipf_memo key with
      | Some d -> d
      | None ->
          let d = build_zipf ~s ~n in
          Hashtbl.add zipf_memo key d;
          d)

(* A uniform draw in (0, 1): redraws the measure-zero 0. A loop rather
   than a local recursive closure, which would allocate on every call. *)
let[@inline] positive_uniform rng =
  let u = ref (Rng.float rng) in
  while !u <= 0. do
    u := Rng.float rng
  done;
  !u

let normal rng =
  let u1 = positive_uniform rng and u2 = Rng.float rng in
  Float.sqrt (-2. *. Float.log u1) *. Float.cos (2. *. Float.pi *. u2)

(* The mixture component whose cumulative-weight interval holds [x]. *)
let rec pick x acc = function
  | [] -> assert false
  | [ (_, d) ] -> d
  | (w, d) :: rest -> if x < acc +. w then d else pick x (acc +. w) rest

(* Smallest rank whose cumulative mass covers [u], searched only inside
   [u]'s guide bracket. [u = 1.] shares the last bracket. *)
let rank_of cdf guide u =
  let j = Int.min (int_of_float (u *. guide_scale)) ((1 lsl guide_bits) - 1) in
  let lo = ref guide.(j) and hi = ref guide.(j + 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let rec sample d rng =
  match d with
  | Constant x -> x
  | Uniform { lo; hi } -> lo +. ((hi -. lo) *. Rng.float rng)
  | Exponential { mean } -> -.mean *. Float.log (positive_uniform rng)
  | Lognormal { mu; sigma } -> Float.exp (mu +. (sigma *. normal rng))
  | Bimodal { p; lo; hi } -> if Rng.float rng < p then hi else lo
  | Pareto { shape; scale } ->
      scale /. Float.pow (positive_uniform rng) (1. /. shape)
  | Mixture { parts; total } -> sample (pick (Rng.float rng *. total) 0. parts) rng
  | Shifted (off, d) -> off +. sample d rng
  | Zipf { cdf; guide; _ } -> float_of_int (rank_of cdf guide (Rng.float rng))

let rec mean = function
  | Constant x -> x
  | Uniform { lo; hi } -> (lo +. hi) /. 2.
  | Exponential { mean = m } -> m
  | Lognormal { mu; sigma } -> Float.exp (mu +. (sigma *. sigma /. 2.))
  | Bimodal { p; lo; hi } -> ((1. -. p) *. lo) +. (p *. hi)
  | Pareto { shape; scale } ->
      if shape <= 1. then infinity else shape *. scale /. (shape -. 1.)
  | Mixture { parts; total } ->
      List.fold_left (fun acc (w, d) -> acc +. (w /. total *. mean d)) 0. parts
  | Shifted (off, d) -> off +. mean d
  | Zipf { mean_rank; _ } -> mean_rank

let zipf_rank d u =
  match d with
  | Zipf { cdf; guide; _ } -> rank_of cdf guide u
  | _ -> invalid_arg "Dist.zipf_rank: not a Zipf distribution"

let zipf_cdf = function
  | Zipf { cdf; _ } -> Array.copy cdf
  | _ -> invalid_arg "Dist.zipf_cdf: not a Zipf distribution"
