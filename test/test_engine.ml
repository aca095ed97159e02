(* Tests for the discrete-event engine: time, RNG, distributions, the event
   queue and the simulation driver. The trace ring moved to [Vessel_obs]
   (see test_obs.ml). *)

open Vessel_engine

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time *)

let test_time_units () =
  check_int "us" 1_500 (Time.us 1.5);
  check_int "ms" 2_000_000 (Time.ms 2.);
  check_int "s" 1_000_000_000 (Time.s 1.);
  Alcotest.(check (float 1e-9)) "to_us" 1.5 (Time.to_us 1_500);
  Alcotest.(check (float 1e-9)) "to_ms" 0.002 (Time.to_ms 2_000);
  Alcotest.(check (float 1e-12)) "to_s" 1e-6 (Time.to_s 1_000)

let test_time_of_cycles () =
  (* 2.1 GHz: 21 cycles = 10 ns *)
  check_int "21 cycles @2.1GHz" 10 (Time.of_cycles ~ghz:2.1 21);
  check_int "zero cycles" 0 (Time.of_cycles ~ghz:2.1 0);
  check_int "1 cycle never rounds to 0" 1 (Time.of_cycles ~ghz:3.0 1)

let test_time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time.to_string 999);
  Alcotest.(check string) "us" "1.500us" (Time.to_string 1_500);
  Alcotest.(check string) "ms" "2.000ms" (Time.to_string 2_000_000)

(* ------------------------------------------------------------------ *)
(* Rng *)

let test_rng_determinism () =
  let a = Rng.create ~seed:7 and b = Rng.create ~seed:7 in
  for _ = 1 to 100 do
    check_int "same stream" (Rng.bits a) (Rng.bits b)
  done

let test_rng_seeds_differ () =
  let a = Rng.create ~seed:1 and b = Rng.create ~seed:2 in
  let differs = ref false in
  for _ = 1 to 10 do
    if Rng.bits a <> Rng.bits b then differs := true
  done;
  check_bool "streams differ" true !differs

let test_rng_split_independent () =
  let a = Rng.create ~seed:3 in
  let c1 = Rng.split a in
  let c2 = Rng.split a in
  check_bool "children differ" true (Rng.bits c1 <> Rng.bits c2)

let test_rng_copy () =
  let a = Rng.create ~seed:11 in
  let _ = Rng.bits a in
  let b = Rng.copy a in
  check_int "copy replays" (Rng.bits a) (Rng.bits b)

let test_rng_int_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_range () =
  let r = Rng.create ~seed:5 in
  for _ = 1 to 1_000 do
    let v = Rng.float r in
    check_bool "in [0,1)" true (v >= 0. && v < 1.)
  done

let test_rng_int_rejects_bad_bound () =
  let r = Rng.create ~seed:5 in
  Alcotest.check_raises "bound 0" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Rng.int r 0))

let test_rng_shuffle_permutation () =
  let r = Rng.create ~seed:9 in
  let a = Array.init 50 Fun.id in
  Rng.shuffle r a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* The first 64 outputs of [int64], [float] and [int _ 1000] from a fresh
   generator, for two seeds, recorded before the state moved from a
   boxed [mutable int64] field to unboxed bytes: every simulation result
   depends on this stream, so the representation must not move a bit.
   Floats are hex literals, exact to the last bit. *)
let rng_pins =
  [
    ( 42,
      [|
        0x989b3f130a063869L; 0x290db4bf2570ded7L; 0x2a990be63a01b2d5L;
        0x0c4b6b24ef01890eL; 0xfb16a06e52ec10a7L; 0x3c30fc5fd50692c3L;
        0x4782c4b4c4fdf7c9L; 0x272404a0a3926552L; 0xc2bc249e28760ccdL;
        0x3e69c285108dbb77L; 0xc3b2b51fc61ec914L; 0xe2df09f8ccf26f14L;
        0xe664fb166d3dc14cL; 0x1494766cf71b64b6L; 0x09b78fbf46485568L;
        0xda9e8d784db0c8f7L; 0x1158ab517a8ca0d3L; 0x394f8bb12fc92c37L;
        0x1633bb32a8a81b0aL; 0xaa1d5be576d44e89L; 0x56f1a2422b95b9b3L;
        0x3af1eb79c66a559fL; 0x8e040e54f7592ee8L; 0x6d94a674c34b9739L;
        0x771b665074d680e9L; 0xf3e574517c5eedb8L; 0x1d23fbdef237f1ccL;
        0xa4b67120e03c4d22L; 0xf39c32800a3a496aL; 0x051953672e4acbbcL;
        0x11d94b400fa88703L; 0x92c6c2e1375c96acL; 0x326a884f2f1dac39L;
        0x5e67829d4e432baeL; 0x5cd221d8b9ba24b6L; 0xf4c91ae0d30534afL;
        0x81d3b5e6f3c30601L; 0x627574470bcad1e1L; 0x76ebaf2cd768671aL;
        0xb611c33398fd898dL; 0x8e2eb3392826cf15L; 0xcf59e55818ecd106L;
        0x4b709a336f13ae86L; 0x9b9a3211a8dacdccL; 0x34d3a61578c85356L;
        0xda5935709ee1b6bfL; 0x75d65d6e374eee3fL; 0x653524c0e06b639cL;
        0xdd342e643df19aedL; 0x457443983f29cfbdL; 0xb4b9000cd3a9692cL;
        0x0cd0813db2ca7cd9L; 0x7604f15ce51d0d06L; 0x50d1ce4ba35f80e4L;
        0xa8fd2f5c35ac4bb9L; 0xc2c45025f895b1faL; 0xa41764c5aeefbfbdL;
        0x021be35babed7ac6L; 0xb5d6af4f1ab5fb18L; 0x063ecf9f68cee4e4L;
        0x5d6df7d13bc9bffcL; 0x51fa1891bade803aL; 0xf66d0801efb25d9bL;
        0x08b30baa09bf6ad6L;
      |],
      [|
        0x1.31367e26140c7p-1; 0x1.486da5f92b86cp-3; 0x1.54c85f31d00d8p-3;
        0x1.896d649de031p-5; 0x1.f62d40dca5d82p-1; 0x1.e187e2fea8348p-3;
        0x1.1e0b12d313f7cp-2; 0x1.392025051c93p-3; 0x1.8578493c50ec1p-1;
        0x1.f34e1428846dcp-3; 0x1.87656a3f8c3d9p-1; 0x1.c5be13f199e4dp-1;
        0x1.ccc9f62cda7b8p-1; 0x1.494766cf71b6p-4; 0x1.36f1f7e8c90ap-5;
        0x1.b53d1af09b619p-1; 0x1.158ab517a8cap-4; 0x1.ca7c5d897e494p-3;
        0x1.633bb32a8a818p-4; 0x1.543ab7caeda89p-1; 0x1.5bc68908ae56ep-2;
        0x1.d78f5bce33528p-3; 0x1.1c081ca9eeb25p-1; 0x1.b65299d30d2e4p-2;
        0x1.dc6d9941d35ap-2; 0x1.e7cae8a2f8bddp-1; 0x1.d23fbdef237fp-4;
        0x1.496ce241c0789p-1; 0x1.e738650014749p-1; 0x1.4654d9cb92b2p-6;
        0x1.1d94b400fa88p-4; 0x1.258d85c26eb92p-1; 0x1.9354427978ed4p-3;
        0x1.799e0a75390cap-2; 0x1.73488762e6e88p-2; 0x1.e99235c1a60a6p-1;
        0x1.03a76bcde786p-1; 0x1.89d5d11c2f2b4p-2; 0x1.dbaebcb35da18p-2;
        0x1.6c23866731fb1p-1; 0x1.1c5d6672504d9p-1; 0x1.9eb3cab031d9ap-1;
        0x1.2dc268cdbc4eap-2; 0x1.3734642351b59p-1; 0x1.a69d30abc6428p-3;
        0x1.b4b26ae13dc36p-1; 0x1.d75975b8dd3bap-2; 0x1.94d4930381ad8p-2;
        0x1.ba685cc87be33p-1; 0x1.15d10e60fca72p-2; 0x1.69720019a752dp-1;
        0x1.9a1027b6594fp-5; 0x1.d813c57394742p-2; 0x1.4347392e8d7ep-2;
        0x1.51fa5eb86b589p-1; 0x1.8588a04bf12b6p-1; 0x1.482ec98b5ddf7p-1;
        0x1.0df1add5f6bcp-7; 0x1.6bad5e9e356bfp-1; 0x1.8fb3e7da33b8p-6;
        0x1.75b7df44ef26ep-2; 0x1.47e86246eb7ap-2; 0x1.ecda1003df64bp-1;
        0x1.1661754137edp-5;
      |],
      [|
        570; 797; 285; 91; 889; 528; 122; 996; 195; 461; 61; 357;
        723; 237; 138; 261; 468; 909; 554; 442; 132; 15; 82; 574;
        922; 422; 811; 336; 378; 183; 64; 363; 510; 211; 117; 115;
        560; 472; 502; 643; 221; 769; 777; 939; 893; 55; 575; 327;
        819; 607; 619; 630; 665; 41; 486; 46; 319; 17; 974; 865;
        679; 838; 814; 109;
      |] );
    ( 7,
      [|
        0x863b891f4c0abd4fL; 0x4d58fbd282eaf415L; 0xf0e521070cc03750L;
        0xe21b503436e97f5bL; 0xa9e76cff841529f5L; 0x583825d25ace04f8L;
        0x660295fd0c2fa166L; 0x9acd7389a1455c90L; 0xcfb7f0a0f435e0e6L;
        0x16650ef5667a5bc0L; 0xe993e4ae36580724L; 0x2b90fb07db5f92c9L;
        0xfe797cf8764fbb76L; 0x92b0f0dfdeeb4d50L; 0x40f91bf16147d9d9L;
        0xcd2c744cbe97132bL; 0xbe96e7d756b2c642L; 0xfcc0b41fab6eb199L;
        0x445cee5fef8b6e4eL; 0x02e94291eca46f5aL; 0x89006ffa71280960L;
        0xc281f099031985b9L; 0xf91aaf827366dac6L; 0xfb6705751dd95f13L;
        0xcc2c180959a3a9e7L; 0xef4a890da5db409dL; 0x62310a6c917ea0f7L;
        0x455f480388216ad5L; 0x733013caeb329763L; 0x5d4b4f15c569c9aeL;
        0x7bcbd56874fe7b0bL; 0x419cbdefa8736225L; 0x0626e1511c51d59eL;
        0xed86210cd0ff4f80L; 0x8950dad3a97d10ecL; 0x41dd79f85c08da00L;
        0x9691454fbc3123b5L; 0x2a0cfcf91b570809L; 0x257f00acc6f6ddfcL;
        0x54ec1e0f07133fb7L; 0xa3e537212da4c155L; 0x6b9992dba4480bfeL;
        0x7e2986c5301ca089L; 0x7b2b640e3f59ee6bL; 0xd9143134f4e36d62L;
        0x6fb5a7cc835849c8L; 0x310dd6660862a25fL; 0xad24405f76c09747L;
        0x9e57f82382fe9130L; 0x1d3aea23d6f608feL; 0x6fb92994aec0cba3L;
        0x5b215fac66698e9bL; 0x5a8ff43c491e27aeL; 0x945209d6ea48c5b0L;
        0x31f9fb983b9fddf1L; 0xdf61d7fb865f4baeL; 0x281341dac2250a71L;
        0x9a630d22e6d171e4L; 0xc3bcfbb1ee056cd5L; 0x120c347bf7ed4f32L;
        0x982f3d1665bb9ac0L; 0x8d5e968c8bfc723aL; 0x3331f6392981d158L;
        0x4905fcf504554af5L;
      |],
      [|
        0x1.0c77123e98157p-1; 0x1.3563ef4a0babcp-2; 0x1.e1ca420e19806p-1;
        0x1.c436a0686dd2fp-1; 0x1.53ced9ff082a5p-1; 0x1.60e097496b38p-2;
        0x1.980a57f430be8p-2; 0x1.359ae713428abp-1; 0x1.9f6fe141e86bcp-1;
        0x1.6650ef5667a58p-4; 0x1.d327c95c6cbp-1; 0x1.5c87d83edafc8p-3;
        0x1.fcf2f9f0ec9f7p-1; 0x1.2561e1bfbdd69p-1; 0x1.03e46fc5851f6p-2;
        0x1.9a58e8997d2e2p-1; 0x1.7d2dcfaead658p-1; 0x1.f981683f56dd6p-1;
        0x1.1173b97fbe2dap-2; 0x1.74a148f65234p-7; 0x1.1200dff4e2501p-1;
        0x1.8503e1320633p-1; 0x1.f2355f04e6cdbp-1; 0x1.f6ce0aea3bb2bp-1;
        0x1.98583012b3475p-1; 0x1.de95121b4bb68p-1; 0x1.88c429b245fa8p-2;
        0x1.157d200e2085ap-2; 0x1.ccc04f2bacca4p-2; 0x1.752d3c5715a72p-2;
        0x1.ef2f55a1d3f9ep-2; 0x1.0672f7bea1cd8p-2; 0x1.89b854471474p-6;
        0x1.db0c4219a1fe9p-1; 0x1.12a1b5a752fa2p-1; 0x1.0775e7e170236p-2;
        0x1.2d228a9f78624p-1; 0x1.5067e7c8dab84p-3; 0x1.2bf8056637b6cp-3;
        0x1.53b0783c1c4cep-2; 0x1.47ca6e425b498p-1; 0x1.ae664b6e91202p-2;
        0x1.f8a61b14c0728p-2; 0x1.ecad9038fd67ap-2; 0x1.b2286269e9c6dp-1;
        0x1.bed69f320d612p-2; 0x1.886eb3304315p-3; 0x1.5a4880beed812p-1;
        0x1.3caff04705fd2p-1; 0x1.d3aea23d6f608p-4; 0x1.bee4a652bb032p-2;
        0x1.6c857eb199a62p-2; 0x1.6a3fd0f124788p-2; 0x1.28a413add4918p-1;
        0x1.8fcfdcc1dcfecp-3; 0x1.bec3aff70cbe9p-1; 0x1.409a0ed611284p-3;
        0x1.34c61a45cda2ep-1; 0x1.8779f763dc0adp-1; 0x1.20c347bf7ed48p-4;
        0x1.305e7a2ccb773p-1; 0x1.1abd2d1917f8ep-1; 0x1.998fb1c94c0e8p-3;
        0x1.2417f3d411552p-2;
      |],
      [|
        963; 181; 52; 718; 629; 526; 849; 468; 521; 536; 153; 90;
        893; 516; 78; 34; 968; 510; 43; 310; 904; 254; 729; 732;
        545; 743; 165; 269; 744; 307; 266; 409; 567; 464; 43; 272;
        365; 490; 327; 541; 589; 431; 650; 106; 256; 490; 367; 113;
        540; 879; 376; 318; 539; 348; 940; 683; 820; 25; 741; 284;
        904; 454; 310; 573;
      |] );
  ]

let test_rng_pinned_stream () =
  List.iter
    (fun (seed, int64s, floats, ints) ->
      let draw f = let r = Rng.create ~seed in Array.init 64 (fun _ -> f r) in
      Alcotest.(check (array int64))
        (Printf.sprintf "int64 seed %d" seed) int64s (draw Rng.int64);
      Alcotest.(check (array (float 0.)))
        (Printf.sprintf "float seed %d" seed) floats (draw Rng.float);
      Alcotest.(check (array int))
        (Printf.sprintf "int seed %d" seed) ints
        (draw (fun r -> Rng.int r 1000)))
    rng_pins

(* ------------------------------------------------------------------ *)
(* Dist *)

let sample_mean d n seed =
  let r = Rng.create ~seed in
  let total = ref 0. in
  for _ = 1 to n do
    total := !total +. Dist.sample d r
  done;
  !total /. float_of_int n

let test_dist_constant () =
  let d = Dist.constant 42. in
  let r = Rng.create ~seed:1 in
  Alcotest.(check (float 0.)) "constant" 42. (Dist.sample d r);
  Alcotest.(check (float 0.)) "mean" 42. (Dist.mean d)

let test_dist_exponential_mean () =
  let d = Dist.exponential ~mean:1000. in
  let m = sample_mean d 50_000 2 in
  check_bool "empirical mean near 1000" true (Float.abs (m -. 1000.) < 30.)

let test_dist_uniform_mean () =
  let d = Dist.uniform ~lo:10. ~hi:20. in
  let m = sample_mean d 20_000 3 in
  check_bool "mean near 15" true (Float.abs (m -. 15.) < 0.3);
  Alcotest.(check (float 1e-9)) "analytic" 15. (Dist.mean d)

let test_dist_lognormal_quantiles () =
  (* Silo/TPC-C fit: p50 = 20us, p999 = 280us (paper section 6.1). *)
  let d = Dist.lognormal_of_quantiles ~p50:20_000. ~p999:280_000. in
  let r = Rng.create ~seed:4 in
  let n = 200_000 in
  let xs = Array.init n (fun _ -> Dist.sample d r) in
  Array.sort compare xs;
  let p50 = xs.(n / 2) and p999 = xs.(n * 999 / 1000) in
  check_bool "p50 ~ 20us" true (Float.abs (p50 -. 20_000.) /. 20_000. < 0.05);
  check_bool "p999 ~ 280us" true
    (Float.abs (p999 -. 280_000.) /. 280_000. < 0.12)

let test_dist_bimodal () =
  let d = Dist.bimodal ~p:0.1 ~lo:1. ~hi:100. in
  let m = sample_mean d 100_000 5 in
  let expected = Dist.mean d in
  Alcotest.(check (float 1e-9)) "analytic mean" 10.9 expected;
  check_bool "empirical near analytic" true (Float.abs (m -. expected) < 0.5)

let test_dist_mixture () =
  let d = Dist.mixture [ (1., Dist.constant 2.); (3., Dist.constant 10.) ] in
  Alcotest.(check (float 1e-9)) "weighted mean" 8. (Dist.mean d);
  let m = sample_mean d 50_000 6 in
  check_bool "empirical" true (Float.abs (m -. 8.) < 0.2)

let test_dist_shifted () =
  let d = Dist.shifted 5. (Dist.constant 1.) in
  let r = Rng.create ~seed:1 in
  Alcotest.(check (float 0.)) "shifted" 6. (Dist.sample d r)

let test_dist_pareto_positive () =
  let d = Dist.pareto ~shape:2. ~scale:3. in
  let r = Rng.create ~seed:7 in
  for _ = 1 to 1_000 do
    check_bool "sample >= scale" true (Dist.sample d r >= 3.)
  done;
  Alcotest.(check (float 1e-9)) "mean" 6. (Dist.mean d)

let test_dist_invalid_args () =
  Alcotest.check_raises "bad quantiles"
    (Invalid_argument "Dist.lognormal_of_quantiles: need 0 < p50 < p999")
    (fun () -> ignore (Dist.lognormal_of_quantiles ~p50:10. ~p999:5.))

(* Zipf: the guide-table draw must pick exactly the rank a plain binary
   search over the whole cumulative table picks. *)
let full_search cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let test_zipf_guide_exact () =
  List.iter
    (fun (s, n) ->
      let d = Dist.zipf ~s ~n in
      let cdf = Dist.zipf_cdf d in
      let agree what u =
        let want = full_search cdf u and got = Dist.zipf_rank d u in
        if want <> got then
          Alcotest.failf "s=%g n=%d %s u=%h: guide %d, full search %d" s n what
            u got want
      in
      let rng = Rng.create ~seed:11 in
      for _ = 1 to 1_000_000 do
        agree "random" (Rng.float rng)
      done;
      for r = 0 to Int.min 999 (n - 1) do
        agree "cdf head" cdf.(r);
        agree "cdf tail" cdf.(n - 1 - r)
      done;
      agree "zero" 0.;
      agree "pred 1" (Float.pred 1.))
    [ (1.1, 1_000_000); (0., 1000); (0.99, 3); (2.5, 70_000) ]

(* Recorded from the two-pass table and full-array search this
   replaced. *)
let zipf_pins =
  [
    ( 42,
    [| 243; 1; 1; 0; 549730; 3; 5; 1; 3329; 3; 3566; 44312; 61589; 0; 0;
      21329; 0; 3; 0; 665; 10; 3; 138; 28; 44; 243040; 0; 482; 235589; 0; 0;
      177; 2; 14; 13; 267898; 74; 17; 44; 1407; 139; 8506; 6; 286; 2; 20842;
      42; 19; 26666; 5; 1290; 0; 42; 8; 621; 3337; 465; 0; 1386; 0; 14; 8;
      321426; 0 |] );
    ( 7,
    [| 93; 7; 176159; 41315; 656; 11; 20; 274; 8754; 0; 83727; 1; 827216; 176;
      4; 7189; 2491; 670614; 5; 0; 106; 3276; 435946; 570567; 6659; 148941;
      17; 5; 37; 14; 55; 4; 0; 124191; 108; 4; 217; 1; 1; 9; 459; 26; 62; 54;
      18715; 31; 2; 799; 334; 0; 31; 12; 12; 192; 2; 32316; 1; 268; 3576; 0;
      237; 133; 2; 6 |] );
  ]

let test_zipf_pinned () =
  let d = Dist.zipf ~s:1.1 ~n:1_000_000 in
  List.iter
    (fun (seed, want) ->
      let r = Rng.create ~seed in
      let got = Array.init 64 (fun _ -> int_of_float (Dist.sample d r)) in
      Alcotest.(check (array int)) (Printf.sprintf "seed %d" seed) want got)
    zipf_pins;
  Alcotest.(check int64) "mean bits" 4674984443716267899L
    (Int64.bits_of_float (Dist.mean d))

let test_zipf_memo () =
  let a = Dist.zipf ~s:0.8 ~n:5000 in
  check_bool "equal (s, n) shared" true (a == Dist.zipf ~s:0.8 ~n:5000);
  check_bool "other s distinct" false (a == Dist.zipf ~s:0.81 ~n:5000);
  check_bool "other n distinct" false (a == Dist.zipf ~s:0.8 ~n:5001);
  (* Two domains racing to build one fresh (s, n) get one value. *)
  let go = Atomic.make false in
  let build () =
    while not (Atomic.get go) do
      Domain.cpu_relax ()
    done;
    Dist.zipf ~s:0.77 ~n:300_000
  in
  let d1 = Domain.spawn build and d2 = Domain.spawn build in
  Atomic.set go true;
  let x = Domain.join d1 and y = Domain.join d2 in
  check_bool "concurrent builds shared" true (x == y);
  check_bool "later call shared" true (x == Dist.zipf ~s:0.77 ~n:300_000)

(* ------------------------------------------------------------------ *)
(* Event_queue *)

let test_eq_order () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:30 "c");
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "" in
  let x1 = pop () in
  let x2 = pop () in
  let x3 = pop () in
  Alcotest.(check (list string)) "time order" [ "a"; "b"; "c" ] [ x1; x2; x3 ]

let test_eq_fifo_ties () =
  let q = Event_queue.create () in
  for i = 0 to 9 do
    ignore (Event_queue.add q ~time:5 i)
  done;
  let out = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (_, v) ->
        out := v :: !out;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list int)) "insertion order at same time"
    [ 0; 1; 2; 3; 4; 5; 6; 7; 8; 9 ] (List.rev !out)

let test_eq_cancel () =
  let q = Event_queue.create () in
  let _h1 = Event_queue.add q ~time:1 "keep1" in
  let h2 = Event_queue.add q ~time:2 "drop" in
  let _h3 = Event_queue.add q ~time:3 "keep2" in
  Event_queue.cancel q h2;
  check_int "live count" 2 (Event_queue.length q);
  let pop () = match Event_queue.pop q with Some (_, v) -> v | None -> "" in
  let x1 = pop () in
  let x2 = pop () in
  Alcotest.(check (list string)) "cancelled skipped" [ "keep1"; "keep2" ]
    [ x1; x2 ];
  check_bool "empty" true (Event_queue.is_empty q)

let test_eq_cancel_idempotent () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 () in
  Event_queue.cancel q h;
  Event_queue.cancel q h;
  check_int "single decrement" 0 (Event_queue.length q)

let test_eq_cancel_after_pop () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:1 () in
  ignore (Event_queue.pop q);
  Event_queue.cancel q h;
  check_int "no underflow" 0 (Event_queue.length q)

let test_eq_peek () =
  let q = Event_queue.create () in
  Alcotest.(check (option int)) "empty peek" None (Event_queue.peek_time q);
  ignore (Event_queue.add q ~time:42 ());
  Alcotest.(check (option int)) "peek" (Some 42) (Event_queue.peek_time q)

let prop_eq_sorted =
  QCheck.Test.make ~name:"event_queue pops sorted" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let q = Event_queue.create () in
      List.iter (fun time -> ignore (Event_queue.add q ~time ())) times;
      let rec drain acc =
        match Event_queue.pop q with
        | Some (time, ()) -> drain (time :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

let test_eq_pop_if_before () =
  let q = Event_queue.create () in
  ignore (Event_queue.add q ~time:10 "a");
  ignore (Event_queue.add q ~time:20 "b");
  Alcotest.(check (option (pair int string)))
    "earliest after horizon" None
    (Event_queue.pop_if_before q ~horizon:9);
  Alcotest.(check (option (pair int string)))
    "boundary is inclusive" (Some (10, "a"))
    (Event_queue.pop_if_before q ~horizon:10);
  Alcotest.(check (option (pair int string)))
    "next still later" None
    (Event_queue.pop_if_before q ~horizon:15);
  check_int "nothing consumed" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string)))
    "pops when within" (Some (20, "b"))
    (Event_queue.pop_if_before q ~horizon:1_000);
  Alcotest.(check (option (pair int string)))
    "empty" None
    (Event_queue.pop_if_before q ~horizon:max_int)

let test_eq_pop_if_before_skips_cancelled () =
  let q = Event_queue.create () in
  let h = Event_queue.add q ~time:5 "dead" in
  ignore (Event_queue.add q ~time:30 "live");
  Event_queue.cancel q h;
  Alcotest.(check (option (pair int string)))
    "cancelled head hides earlier time" None
    (Event_queue.pop_if_before q ~horizon:10);
  Alcotest.(check (option (pair int string)))
    "live entry pops" (Some (30, "live"))
    (Event_queue.pop_if_before q ~horizon:30)

let test_eq_drain_before () =
  let q = Event_queue.create () in
  for i = 1 to 5 do
    ignore (Event_queue.add q ~time:(10 * i) i)
  done;
  let out = ref [] in
  Event_queue.drain_before q ~horizon:30 (fun time v -> out := (time, v) :: !out);
  Alcotest.(check (list (pair int int)))
    "drains in order up to horizon"
    [ (10, 1); (20, 2); (30, 3) ]
    (List.rev !out);
  check_int "rest untouched" 2 (Event_queue.length q)

let test_eq_drain_before_reentrant () =
  (* An event at the horizon scheduling another at the horizon must see it
     drained in the same call — run_until's semantics. *)
  let q = Event_queue.create () in
  let fired = ref [] in
  let rec chain n () =
    fired := n :: !fired;
    if n < 3 then ignore (Event_queue.add q ~time:100 (chain (n + 1)))
  in
  ignore (Event_queue.add q ~time:100 (chain 1));
  Event_queue.drain_before q ~horizon:100 (fun _time f -> f ());
  Alcotest.(check (list int)) "chained at horizon" [ 1; 2; 3 ] (List.rev !fired);
  check_bool "drained" true (Event_queue.is_empty q)

(* Entry records are pooled and recycled; a handle kept across its
   entry's reuse must not be able to cancel the new tenant. *)
let test_eq_stale_handle_recycled () =
  let q = Event_queue.create () in
  let h1 = Event_queue.add q ~time:1 "a" in
  ignore (Event_queue.pop q);
  (* The freed slot is recycled by the next add. *)
  let _h2 = Event_queue.add q ~time:2 "b" in
  Event_queue.cancel q h1;
  check_int "stale cancel spares new tenant" 1 (Event_queue.length q);
  Alcotest.(check (option (pair int string)))
    "new tenant intact" (Some (2, "b")) (Event_queue.pop q);
  (* Same for a cancelled-then-collected entry. *)
  let h3 = Event_queue.add q ~time:3 "c" in
  Event_queue.cancel q h3;
  Alcotest.(check (option (pair int string))) "empty" None (Event_queue.pop q);
  let _h4 = Event_queue.add q ~time:4 "d" in
  Event_queue.cancel q h3;
  check_int "doubly stale cancel" 1 (Event_queue.length q)

(* Events routed to every wheel level plus the overflow heap must still
   pop in (time, insertion) order, including adds behind the cursor. *)
let eq_backends = [ ("wheel", Event_queue.Wheel); ("heap", Event_queue.Heap) ]

let test_eq_multi_level backend () =
  let q = Event_queue.create ~backend () in
  let far = (1 lsl 33) + 7 in
  (* level 0 / 1 / 2 / 3 / overflow, interleaved. *)
  let times = [ 20_000_000; 5; 100_000; far; 1_000; 6; far; 100_001 ] in
  List.iteri (fun i time -> ignore (Event_queue.add q ~time (i, time))) times;
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (t, (i, t')) ->
        check_int "payload time" t t';
        popped := (t, i) :: !popped;
        drain ()
    | None -> ()
  in
  (* Pop two, then add behind the cursor: past adds go to the overflow
     heap and must surface immediately. *)
  (match Event_queue.pop q with
  | Some (t, (i, _)) -> popped := (t, i) :: !popped
  | None -> Alcotest.fail "unexpected empty");
  ignore (Event_queue.add q ~time:0 (99, 0));
  drain ();
  Alcotest.(check (list (pair int int)))
    "global (time, seq) order"
    [ (5, 1); (0, 99); (6, 5); (1_000, 4); (100_000, 2); (100_001, 7);
      (20_000_000, 0); (far, 3); (far, 6) ]
    (List.rev !popped)

(* Steady-state churn must not touch the minor heap: [add] hands out
   immediate handles from the entry pool and [drain_before] recycles in
   place. Budget is per *drain call* (one closure), not per event. *)
let test_eq_zero_alloc () =
  let q = Event_queue.create () in
  let burst = 256 and rounds = 100 in
  let fired = ref 0 in
  let cb _time () = incr fired in
  let churn () =
    for r = 0 to rounds - 1 do
      for i = 1 to burst do
        ignore (Event_queue.add q ~time:((r * burst) + i) ())
      done;
      Event_queue.drain_before q ~horizon:((r + 1) * burst) cb
    done
  in
  churn ();
  (* Pool is now warm: steady churn may not grow it or allocate. *)
  let allocated = Event_queue.pool_allocated q in
  let w0 = Gc.minor_words () in
  churn ();
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int (burst * rounds)
  in
  check_int "fired" (2 * burst * rounds) !fired;
  check_int "pool did not grow" allocated (Event_queue.pool_allocated q);
  check_bool
    (Printf.sprintf "allocation-free steady state (%.3f words/event)"
       per_event)
    true (per_event < 0.5)

(* Regression: a pop can jump the cursor across a block boundary, into
   a region whose events are still parked in a covering higher-level
   slot. A reentrant add then lands at a lower level, and the scan must
   not return it ahead of the earlier parked event. Found by
   differential fuzzing against the pre-wheel heap queue. *)
let test_eq_covering_slot_drain backend () =
  let q = Event_queue.create ~backend () in
  ignore (Event_queue.add q ~time:0x1f8c5 0);
  Alcotest.(check (option (pair int int)))
    "warm-up pop" (Some (0x1f8c5, 0)) (Event_queue.pop q);
  (* [b] briefly caches as the front, then [c] undercuts it: [b] is
     demoted into a level-2 slot the cursor has not entered yet. *)
  ignore (Event_queue.add q ~time:0x200c8 1);
  ignore (Event_queue.add q ~time:0x200c2 2);
  let popped = ref [] in
  Event_queue.drain_before q ~horizon:0x20804 (fun t id ->
      popped := (t, id) :: !popped;
      (* Popping [c] moves the cursor into [b]'s covering slot; this
         reentrant add lands at level 1 and must not overtake [b]. *)
      if id = 2 then ignore (Event_queue.add q ~time:0x20523 3));
  Alcotest.(check (list (pair int int)))
    "drain order across the cursor jump"
    [ (0x200c2, 2); (0x200c8, 1); (0x20523, 3) ]
    (List.rev !popped)

(* Regression: demoting the front-cache entry must put it at the HEAD
   of its bucket — a same-time event added while it was cached has a
   higher seq and already sits in that bucket. Found by differential
   fuzzing against the pre-wheel heap queue. *)
let test_eq_demoted_front_fifo backend () =
  let q = Event_queue.create ~backend () in
  let t = 0x19eae in
  ignore (Event_queue.add q ~time:t 0);
  (* same time, higher seq: goes to the bucket while 0 is the front *)
  ignore (Event_queue.add q ~time:t 1);
  (* earlier time: demotes 0 into the same bucket, behind 1 if naive *)
  ignore (Event_queue.add q ~time:0x19408 2);
  let popped = ref [] in
  let rec drain () =
    match Event_queue.pop q with
    | Some (time, id) ->
        popped := (time, id) :: !popped;
        drain ()
    | None -> ()
  in
  drain ();
  Alcotest.(check (list (pair int int)))
    "same-time FIFO survives front demotion"
    [ (0x19408, 2); (t, 0); (t, 1) ]
    (List.rev !popped)

(* Model-based test: random add/cancel/pop/pop_if_before/drain_before
   sequences against a sorted-association-list reference, exercising the
   lazy-deletion path (cancelled entries linger until they surface) and,
   for the wheel backend, cascades and the overflow heap. *)

type eq_op =
  | Add of int
  | Cancel of int
  | Pop
  | Pop_before of int
  | Drain_before of int

(* Times at wheel-level scale: mostly near the cursor, some mid-range,
   some past the 2^32 wheel horizon (overflow heap). *)
let eq_time_gen =
  QCheck.Gen.(
    frequency
      [
        (6, int_bound 100);
        (3, int_bound 1_000_000);
        (1, map (fun t -> (1 lsl 32) + t) (int_bound 1_000));
      ])

let eq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, map (fun t -> Add t) eq_time_gen);
        (3, map (fun i -> Cancel i) (int_bound 50));
        (3, return Pop);
        (2, map (fun t -> Pop_before t) eq_time_gen);
        (1, map (fun t -> Drain_before t) eq_time_gen);
      ])

let eq_op_print = function
  | Add t -> Printf.sprintf "Add %d" t
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Pop -> "Pop"
  | Pop_before t -> Printf.sprintf "Pop_before %d" t
  | Drain_before t -> Printf.sprintf "Drain_before %d" t

let eq_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map eq_op_print ops))
    QCheck.Gen.(list_size (int_bound 200) eq_op_gen)

let prop_eq_model (name, backend) =
  QCheck.Test.make
    ~name:(Printf.sprintf "event_queue (%s) matches sorted-list model" name)
    ~count:300 eq_ops_arb (fun ops ->
      let q = Event_queue.create ~backend () in
      (* The model: live entries as (time, id) kept in pop order; [handles]
         maps id -> real handle for cancel targeting. *)
      let model = ref [] and handles = ref [||] and next_id = ref 0 in
      let model_pop ?horizon () =
        match
          List.sort
            (fun (t1, i1) (t2, i2) -> compare (t1, i1) (t2, i2))
            !model
        with
        | [] -> None
        | (t, i) :: _ ->
            if match horizon with Some h -> t > h | None -> false then None
            else begin
              model := List.filter (fun (_, j) -> j <> i) !model;
              Some (t, i)
            end
      in
      List.for_all
        (fun op ->
          let ok =
            match op with
            | Add time ->
                let id = !next_id in
                incr next_id;
                let h = Event_queue.add q ~time id in
                handles := Array.append !handles [| h |];
                model := (time, id) :: !model;
                true
            | Cancel k ->
                if Array.length !handles = 0 then true
                else begin
                  let i = k mod Array.length !handles in
                  Event_queue.cancel q !handles.(i);
                  (* Cancelling a popped or already-cancelled id is a
                     no-op in both the queue and the model. *)
                  model := List.filter (fun (_, j) -> j <> i) !model;
                  true
                end
            | Pop -> Event_queue.pop q = model_pop ()
            | Pop_before h ->
                Event_queue.pop_if_before q ~horizon:h
                = model_pop ~horizon:h ()
            | Drain_before h ->
                let got = ref [] in
                Event_queue.drain_before q ~horizon:h (fun t id ->
                    got := (t, id) :: !got);
                let rec expect acc =
                  match model_pop ~horizon:h () with
                  | Some e -> expect (e :: acc)
                  | None -> List.rev acc
                in
                List.rev !got = expect []
          in
          ok && Event_queue.length q = List.length !model)
        ops)

(* Wheel summary words: after every step of a random add / tagged add /
   cancel / pop / drain_batch sequence, each level's summary bit [w] must
   be set iff occupancy word [w] is nonzero — [level_next] trusts the
   summary to skip empty words. The queue under test runs in lockstep
   with a heap-backed reference, so the same sequences also check that
   the backends dispatch identically. *)

type wq_op =
  | W_add of int
  | W_add_tagged of int
  | W_cancel of int
  | W_pop
  | W_drain of int

let wq_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun t -> W_add t) eq_time_gen);
        (4, map (fun t -> W_add_tagged t) eq_time_gen);
        (3, map (fun i -> W_cancel i) (int_bound 80));
        (2, return W_pop);
        (2, map (fun t -> W_drain t) eq_time_gen);
      ])

let wq_op_print = function
  | W_add t -> Printf.sprintf "W_add %d" t
  | W_add_tagged t -> Printf.sprintf "W_add_tagged %d" t
  | W_cancel i -> Printf.sprintf "W_cancel %d" i
  | W_pop -> "W_pop"
  | W_drain t -> Printf.sprintf "W_drain %d" t

let wq_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map wq_op_print ops))
    QCheck.Gen.(list_size (int_bound 300) wq_op_gen)

let prop_eq_summary (name, backend) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "event_queue (%s) summary words track occupancy" name)
    ~count:300 wq_ops_arb (fun ops ->
      let mk b = (Event_queue.create ~backend:b (), ref []) in
      let (q, log_q) = mk backend and (r, log_r) = mk Event_queue.Heap in
      (* Every event logs (id, time), whichever path delivers it. *)
      let deliver log = (fun time id -> log := (id, time) :: !log) in
      let handlers log = [| (fun id time -> log := (id, time) :: !log) |] in
      let hq = handlers log_q and hr = handlers log_r in
      let handles = ref [||] and next_id = ref 0 in
      let add tagged time =
        let id = !next_id in
        incr next_id;
        let put q =
          if tagged then Event_queue.add_tagged q ~time ~tag:0 ~a:id ~b:time
          else Event_queue.add q ~time id
        in
        handles := Array.append !handles [| (put q, put r) |]
      in
      List.for_all
        (fun op ->
          (match op with
          | W_add t -> add false t
          | W_add_tagged t -> add true t
          | W_cancel k ->
              let n = Array.length !handles in
              if n > 0 then begin
                let hq', hr' = !handles.(k mod n) in
                Event_queue.cancel q hq';
                Event_queue.cancel r hr'
              end
          | W_pop ->
              let pop q log h =
                Event_queue.pop_event q
                  ~tagged:(fun _ _ a b -> h.(0) a b)
                  ~closure:(deliver log)
              in
              ignore (pop q log_q hq);
              ignore (pop r log_r hr)
          | W_drain h ->
              let drain q log hs =
                Event_queue.drain_batch q ~horizon:h ~start:ignore ~handlers:hs
                  (deliver log)
              in
              ignore (drain q log_q hq);
              ignore (drain r log_r hr));
          Event_queue.summary_consistent q
          && !log_q = !log_r
          && Event_queue.length q = Event_queue.length r)
        ops)

(* ------------------------------------------------------------------ *)
(* Id_table *)

let test_id_table () =
  let t = Id_table.create () in
  List.iter (fun (id, v) -> Id_table.set t id v) [ (300, "c"); (0, "a"); (7, "b") ];
  Id_table.set t 7 "b'";
  check_int "length counts ids, not sets" 3 (Id_table.length t);
  Alcotest.(check (list int)) "ids ascending" [ 0; 7; 300 ] (Id_table.ids t);
  Alcotest.(check (list (pair int string)))
    "fold ascending"
    [ (0, "a"); (7, "b'"); (300, "c") ]
    (List.rev (Id_table.fold (fun id v acc -> (id, v) :: acc) t []));
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "unbound %d" id) true
        (Id_table.find_opt t id = None && not (Id_table.mem t id)))
    [ 1; 299; 301; -1; min_int; max_int ];
  Id_table.remove t 7;
  Id_table.remove t 7;
  Id_table.remove t 5_000;
  check_int "removed once" 2 (Id_table.length t);
  check_bool "7 gone" false (Id_table.mem t 7);
  List.iter
    (fun id ->
      check_bool (Printf.sprintf "set %d rejected" id) true
        (try
           Id_table.set t id "x";
           false
         with Invalid_argument _ -> true))
    [ -1; Id_table.max_id + 1 ];
  Id_table.clear t;
  check_int "cleared" 0 (Id_table.length t);
  check_bool "cleared lookup" true (Id_table.find_opt t 0 = None)

(* ------------------------------------------------------------------ *)
(* Sim *)

let test_sim_runs_in_order () =
  let sim = Sim.create () in
  let log = ref [] in
  ignore (Sim.schedule sim ~at:200 (fun _ -> log := "b" :: !log));
  ignore (Sim.schedule sim ~at:100 (fun _ -> log := "a" :: !log));
  Sim.run_until sim 1_000;
  Alcotest.(check (list string)) "order" [ "a"; "b" ] (List.rev !log);
  check_int "clock at horizon" 1_000 (Sim.now sim)

let test_sim_horizon_excludes_later () =
  let sim = Sim.create () in
  let fired = ref false in
  ignore (Sim.schedule sim ~at:500 (fun _ -> fired := true));
  Sim.run_until sim 499;
  check_bool "not fired" false !fired;
  check_int "pending" 1 (Sim.pending sim);
  Sim.run_until sim 500;
  check_bool "fired" true !fired

let test_sim_reentrant_schedule () =
  let sim = Sim.create () in
  let count = ref 0 in
  let rec tick sim =
    incr count;
    if !count < 5 then ignore (Sim.schedule_after sim ~delay:10 tick)
  in
  ignore (Sim.schedule sim ~at:0 tick);
  Sim.run_until sim 1_000;
  check_int "chained events" 5 !count

let test_sim_schedule_past_rejected () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:100 (fun _ -> ()));
  Sim.run_until sim 100;
  check_bool "raises" true
    (try
       ignore (Sim.schedule sim ~at:50 (fun _ -> ()));
       false
     with Invalid_argument _ -> true)

let test_sim_cancel () =
  let sim = Sim.create () in
  let fired = ref false in
  let h = Sim.schedule sim ~at:10 (fun _ -> fired := true) in
  Sim.cancel sim h;
  Sim.run_until sim 100;
  check_bool "cancelled" false !fired

let test_sim_step () =
  let sim = Sim.create () in
  ignore (Sim.schedule sim ~at:7 (fun _ -> ()));
  check_bool "step" true (Sim.step sim);
  check_int "clock moved" 7 (Sim.now sim);
  check_bool "exhausted" false (Sim.step sim)

(* ------------------------------------------------------------------ *)
(* Batched dispatch: [run_until]'s batch drain must be observably
   identical to one-at-a-time [step] — callback order, the clock each
   callback sees, and the executed counters — including reentrant
   schedules into the current batch and cancels aimed at events later
   in the same batch. *)

type batch_op =
  | Fire (* a tagged event that only logs *)
  | Boxed (* a closure event that only logs *)
  | Spawn_same (* schedules a tagged event at its own timestamp *)
  | Spawn_later of int (* schedules a tagged event [d] later *)
  | Cancel_next (* cancels the earliest still-pending Fire handle *)

let batch_op_gen =
  QCheck.Gen.(
    frequency
      [
        (5, return Fire);
        (2, return Boxed);
        (2, return Spawn_same);
        (2, map (fun d -> Spawn_later (d + 1)) (int_bound 40));
        (2, return Cancel_next);
      ])

(* Small time range so many events share a timestamp (deep batches). *)
let batch_scenario_gen =
  QCheck.Gen.(
    list_size (int_bound 60) (pair (int_bound 20) batch_op_gen))

let batch_op_print (t, op) =
  Printf.sprintf "(%d, %s)" t
    (match op with
    | Fire -> "Fire"
    | Boxed -> "Boxed"
    | Spawn_same -> "Spawn_same"
    | Spawn_later d -> Printf.sprintf "Spawn_later %d" d
    | Cancel_next -> "Cancel_next")

let batch_scenario_arb =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map batch_op_print ops))
    batch_scenario_gen

(* Interpret a scenario on a fresh sim. [drive] consumes the sim after
   setup; the observable record is the (clock, id) log plus the local
   executed counter. Tagged log events carry their scenario index in
   [a] so the two runs can be compared id-by-id. *)
let run_batch_scenario ~backend ~drive ops =
  let sim = Sim.create ~backend () in
  let log = ref [] in
  let fire_tag =
    Sim.register_handler sim (fun a _ -> log := (Sim.now sim, a) :: !log)
  in
  (* Pending Fire handles, oldest first, for Cancel_next to target. *)
  let pending = Queue.create () in
  List.iteri
    (fun i (time, op) ->
      match op with
      | Fire ->
          Queue.push
            (Sim.schedule_tagged sim ~at:time ~tag:fire_tag ~a:i ~b:0)
            pending
      | Boxed ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 log := (Sim.now sim, 10_000 + i) :: !log))
      | Spawn_same ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 ignore
                   (Sim.schedule_tagged sim ~at:(Sim.now sim) ~tag:fire_tag
                      ~a:(20_000 + i) ~b:0)))
      | Spawn_later d ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 ignore
                   (Sim.schedule_tagged_after sim ~delay:d ~tag:fire_tag
                      ~a:(30_000 + i) ~b:0)))
      | Cancel_next ->
          ignore
            (Sim.schedule sim ~at:time (fun sim ->
                 match Queue.take_opt pending with
                 | Some h -> Sim.cancel sim h
                 | None -> ())))
    ops;
  drive sim;
  (List.rev !log, Sim.events_executed sim)

let drive_run_until sim = Sim.run_until sim 1_000

let drive_step sim =
  while Sim.step sim do
    ()
  done

let prop_batch_vs_step (name, backend) =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "run_until batches = step-at-a-time (%s)" name)
    ~count:500 batch_scenario_arb (fun ops ->
      let g0 = Sim.total_events_executed () in
      let batched = run_batch_scenario ~backend ~drive:drive_run_until ops in
      let stepped = run_batch_scenario ~backend ~drive:drive_step ops in
      let g1 = Sim.total_events_executed () in
      (* Satellite invariant: the batched global-counter flush loses
         nothing — the process-wide aggregate advances by exactly the
         two runs' local counts. *)
      batched = stepped && g1 - g0 = snd batched + snd stepped)

(* The tagged scheduling path must stay allocation-free end to end
   through [Sim.run_until]: a warm self-rescheduling handler churns the
   queue with no minor-heap traffic. Budget is per horizon-window, not
   per event. *)
let test_sim_tagged_zero_alloc () =
  let sim = Sim.create () in
  let count = ref 0 in
  let tag = ref (-1) in
  let rounds = 100 and per_round = 256 in
  tag :=
    Sim.register_handler sim (fun a _ ->
        incr count;
        if a > 1 then
          ignore (Sim.schedule_tagged_after sim ~delay:7 ~tag:!tag ~a:(a - 1) ~b:0));
  let churn () =
    for _ = 1 to rounds do
      ignore
        (Sim.schedule_tagged_after sim ~delay:1 ~tag:!tag ~a:per_round ~b:0);
      Sim.run_until sim (Sim.now sim + (7 * per_round) + 10)
    done
  in
  churn ();
  let w0 = Gc.minor_words () in
  churn ();
  let per_event =
    (Gc.minor_words () -. w0) /. float_of_int (rounds * per_round)
  in
  check_int "fired" (2 * rounds * per_round) !count;
  check_bool
    (Printf.sprintf "tagged run_until allocation-free (%.3f words/event)"
       per_event)
    true (per_event < 0.5)

let test_sim_deterministic_replay () =
  let run () =
    let sim = Sim.create ~seed:99 () in
    let r = Rng.split (Sim.rng sim) in
    let acc = ref [] in
    for _ = 1 to 10 do
      ignore
        (Sim.schedule_after sim ~delay:(Rng.int r 1_000) (fun sim ->
             acc := Sim.now sim :: !acc))
    done;
    Sim.run_until sim 10_000;
    !acc
  in
  Alcotest.(check (list int)) "replay identical" (run ()) (run ())

let suite =
  [
    ( "engine.time",
      [
        Alcotest.test_case "unit conversions" `Quick test_time_units;
        Alcotest.test_case "cycles to ns" `Quick test_time_of_cycles;
        Alcotest.test_case "pretty printing" `Quick test_time_pp;
      ] );
    ( "engine.rng",
      [
        Alcotest.test_case "determinism" `Quick test_rng_determinism;
        Alcotest.test_case "seeds differ" `Quick test_rng_seeds_differ;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "copy" `Quick test_rng_copy;
        Alcotest.test_case "int range" `Quick test_rng_int_range;
        Alcotest.test_case "float range" `Quick test_rng_float_range;
        Alcotest.test_case "bad bound" `Quick test_rng_int_rejects_bad_bound;
        Alcotest.test_case "shuffle is a permutation" `Quick
          test_rng_shuffle_permutation;
        Alcotest.test_case "pinned stream" `Quick test_rng_pinned_stream;
      ] );
    ( "engine.dist",
      [
        Alcotest.test_case "constant" `Quick test_dist_constant;
        Alcotest.test_case "exponential mean" `Quick test_dist_exponential_mean;
        Alcotest.test_case "uniform mean" `Quick test_dist_uniform_mean;
        Alcotest.test_case "lognormal quantile fit (Silo)" `Quick
          test_dist_lognormal_quantiles;
        Alcotest.test_case "bimodal" `Quick test_dist_bimodal;
        Alcotest.test_case "mixture" `Quick test_dist_mixture;
        Alcotest.test_case "shifted" `Quick test_dist_shifted;
        Alcotest.test_case "pareto" `Quick test_dist_pareto_positive;
        Alcotest.test_case "invalid args" `Quick test_dist_invalid_args;
        Alcotest.test_case "zipf guide table exact" `Quick test_zipf_guide_exact;
        Alcotest.test_case "zipf pinned draws and mean" `Quick test_zipf_pinned;
        Alcotest.test_case "zipf memo shares equal (s, n)" `Quick test_zipf_memo;
      ] );
    ( "engine.event_queue",
      [
        Alcotest.test_case "time order" `Quick test_eq_order;
        Alcotest.test_case "FIFO tie-break" `Quick test_eq_fifo_ties;
        Alcotest.test_case "cancel" `Quick test_eq_cancel;
        Alcotest.test_case "cancel idempotent" `Quick test_eq_cancel_idempotent;
        Alcotest.test_case "cancel after pop" `Quick test_eq_cancel_after_pop;
        Alcotest.test_case "peek" `Quick test_eq_peek;
        Alcotest.test_case "pop_if_before" `Quick test_eq_pop_if_before;
        Alcotest.test_case "pop_if_before skips cancelled" `Quick
          test_eq_pop_if_before_skips_cancelled;
        Alcotest.test_case "drain_before" `Quick test_eq_drain_before;
        Alcotest.test_case "drain_before reentrant" `Quick
          test_eq_drain_before_reentrant;
        Alcotest.test_case "stale handle after recycling" `Quick
          test_eq_stale_handle_recycled;
        Alcotest.test_case "multi-level order (wheel)" `Quick
          (test_eq_multi_level Event_queue.Wheel);
        Alcotest.test_case "multi-level order (heap)" `Quick
          (test_eq_multi_level Event_queue.Heap);
        Alcotest.test_case "zero-alloc steady state" `Quick
          test_eq_zero_alloc;
        Alcotest.test_case "covering-slot drain on cursor jump (wheel)"
          `Quick
          (test_eq_covering_slot_drain Event_queue.Wheel);
        Alcotest.test_case "covering-slot drain on cursor jump (heap)"
          `Quick
          (test_eq_covering_slot_drain Event_queue.Heap);
        Alcotest.test_case "demoted front keeps FIFO (wheel)" `Quick
          (test_eq_demoted_front_fifo Event_queue.Wheel);
        Alcotest.test_case "demoted front keeps FIFO (heap)" `Quick
          (test_eq_demoted_front_fifo Event_queue.Heap);
        QCheck_alcotest.to_alcotest prop_eq_sorted;
      ]
      @ List.map
          (fun b -> QCheck_alcotest.to_alcotest (prop_eq_model b))
          eq_backends
      @ List.map
          (fun b -> QCheck_alcotest.to_alcotest (prop_eq_summary b))
          eq_backends );
    ("engine.id_table", [ Alcotest.test_case "dense ids" `Quick test_id_table ]);
    ( "engine.sim",
      [
        Alcotest.test_case "runs in order" `Quick test_sim_runs_in_order;
        Alcotest.test_case "horizon" `Quick test_sim_horizon_excludes_later;
        Alcotest.test_case "reentrant schedule" `Quick test_sim_reentrant_schedule;
        Alcotest.test_case "past rejected" `Quick test_sim_schedule_past_rejected;
        Alcotest.test_case "cancel" `Quick test_sim_cancel;
        Alcotest.test_case "step" `Quick test_sim_step;
        Alcotest.test_case "tagged run_until zero-alloc" `Quick
          test_sim_tagged_zero_alloc;
        Alcotest.test_case "deterministic replay" `Quick
          test_sim_deterministic_replay;
      ]
      @ List.map
          (fun b -> QCheck_alcotest.to_alcotest (prop_batch_vs_step b))
          eq_backends );
  ]
