(* Tests for the simulated hardware: cost model calibration, MPK
   (pkeys/PKRU/page table), user interrupts, IPIs, cache, memory
   bandwidth, idle states and the machine assembly. *)

open Vessel_hw
module Sim = Vessel_engine.Sim
module Rng = Vessel_engine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Cost_model: the calibration the whole reproduction leans on. *)

let test_cost_vessel_switch_calibrated () =
  (* Table 1: VESSEL context switch ~ 0.161 us. *)
  let c = Cost_model.default in
  let v = Cost_model.vessel_park_switch c in
  check_bool "within 10% of 161ns" true (abs (v - 161) <= 16)

let test_cost_caladan_park_calibrated () =
  (* Table 1: Caladan ~ 2.103 us. *)
  let c = Cost_model.default in
  let v = Cost_model.caladan_park_switch c in
  check_bool "within 10% of 2103ns" true (abs (v - 2103) <= 210)

let test_cost_caladan_preempt_calibrated () =
  (* Figure 3: the full preemption path is ~ 5.3 us. *)
  let c = Cost_model.default in
  let v = Cost_model.caladan_preempt_switch c in
  check_bool "within 10% of 5300ns" true (abs (v - 5300) <= 530);
  check_int "stage sum equals total" v
    (List.fold_left (fun a (_, d) -> a + d) 0 (Cost_model.caladan_preempt_stages c))

let test_cost_ordering () =
  (* The paper's headline inequality: VESSEL switch << Caladan park switch
     << Caladan preemption. Uintr delivery beats the IPI path by ~an order
     of magnitude (section 2.2: "up to 15x lower latencies"). *)
  let c = Cost_model.default in
  check_bool "vessel << caladan park" true
    (Cost_model.vessel_park_switch c * 10 < Cost_model.caladan_park_switch c);
  check_bool "park < preempt" true
    (Cost_model.caladan_park_switch c < Cost_model.caladan_preempt_switch c);
  check_bool "uintr delivery much cheaper than kernel signal path" true
    (c.Cost_model.uintr_delivery * 5
    < c.Cost_model.ioctl + c.Cost_model.ipi_flight + c.Cost_model.kernel_signal)

let test_cost_jitter_shape () =
  let c = Cost_model.default in
  let rng = Rng.create ~seed:17 in
  let h = Vessel_stats.Histogram.create () in
  for _ = 1 to 200_000 do
    Vessel_stats.Histogram.record h (Cost_model.jittered c rng 161)
  done;
  let mean = Vessel_stats.Histogram.mean h in
  let p50 = Vessel_stats.Histogram.percentile h 50. in
  let p999 = Vessel_stats.Histogram.percentile h 99.9 in
  (* Table-1 shape: mean ~ p50 ~ base, p999 several x larger. *)
  check_bool "mean near base" true (Float.abs (mean -. 161.) < 15.);
  check_bool "p50 near base" true (abs (p50 - 161) < 15);
  check_bool "p999 is a multi-x spike" true (p999 > 320 && p999 < 161 * 6)

let test_cost_override () =
  let c = Cost_model.v ~f:(fun d -> { d with Cost_model.wrpkru = 260 }) () in
  check_bool "override reflected" true
    (Cost_model.vessel_park_switch c > Cost_model.vessel_park_switch Cost_model.default)

(* ------------------------------------------------------------------ *)
(* Pkey *)

let test_pkey_layout () =
  check_int "13 uprocesses" 13 Pkey.max_uprocesses;
  check_int "runtime key" 14 (Pkey.to_int Pkey.runtime);
  check_int "pipe key" 15 (Pkey.to_int Pkey.message_pipe);
  check_int "key 0 reserved" 0 (Pkey.to_int Pkey.default);
  check_int "slot 0 -> key 1" 1 (Pkey.to_int (Pkey.uprocess_key 0));
  check_int "slot 12 -> key 13" 13 (Pkey.to_int (Pkey.uprocess_key 12))

let test_pkey_limits () =
  check_bool "slot 13 rejected" true
    (try ignore (Pkey.uprocess_key 13); false with Invalid_argument _ -> true);
  check_bool "16 rejected" true
    (try ignore (Pkey.of_int 16); false with Invalid_argument _ -> true);
  check_bool "negative rejected" true
    (try ignore (Pkey.of_int (-1)); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Pkru *)

let test_pkru_all_denied () =
  let p = Pkru.all_denied in
  for k = 0 to 15 do
    check_bool "no read" false (Pkru.can_read p (Pkey.of_int k));
    check_bool "no write" false (Pkru.can_write p (Pkey.of_int k))
  done

let test_pkru_grants () =
  let k3 = Pkey.of_int 3 and k5 = Pkey.of_int 5 in
  let p = Pkru.make [ (k3, Pkru.Read_write); (k5, Pkru.Read_only) ] in
  check_bool "k3 rw" true (Pkru.can_write p k3);
  check_bool "k5 r" true (Pkru.can_read p k5);
  check_bool "k5 not w" false (Pkru.can_write p k5);
  check_bool "k4 denied" false (Pkru.can_read p (Pkey.of_int 4))

let test_pkru_set_isolated () =
  let k1 = Pkey.of_int 1 and k2 = Pkey.of_int 2 in
  let p = Pkru.make [ (k1, Pkru.Read_write) ] in
  let p' = Pkru.set p k2 Pkru.Read_only in
  check_bool "k1 preserved" true (Pkru.can_write p' k1);
  check_bool "k2 granted" true (Pkru.can_read p' k2);
  (* original untouched (immutability matters for the call-gate check) *)
  check_bool "p unchanged" false (Pkru.can_read p k2)

let test_pkru_roundtrip () =
  let p = Pkru.make [ (Pkey.of_int 7, Pkru.Read_write) ] in
  check_bool "of_int/to_int" true (Pkru.equal p (Pkru.of_int (Pkru.to_int p)))

let prop_pkru_set_then_perm =
  QCheck.Test.make ~name:"pkru set/perm roundtrip" ~count:200
    QCheck.(pair (int_bound 15) (int_bound 2))
    (fun (k, pi) ->
      let perm =
        match pi with 0 -> Pkru.No_access | 1 -> Pkru.Read_only | _ -> Pkru.Read_write
      in
      let key = Pkey.of_int k in
      Pkru.perm (Pkru.set Pkru.all_denied key perm) key = perm)

(* ------------------------------------------------------------------ *)
(* Page / Page_table *)

let entry prot pkey = { Page.prot; pkey = Pkey.of_int pkey }

let test_page_check_matrix () =
  let pkru = Pkru.make [ (Pkey.of_int 1, Pkru.Read_write) ] in
  (* rw page, owned key -> all data access ok *)
  check_bool "rw+owned read" true
    (Page.check (entry Page.prot_rw 1) ~pkru Page.Read = Ok ());
  check_bool "rw+owned write" true
    (Page.check (entry Page.prot_rw 1) ~pkru Page.Write = Ok ());
  (* rw page, foreign key -> MPK fault *)
  (match Page.check (entry Page.prot_rw 2) ~pkru Page.Read with
  | Error (Page.Mpk_violation _) -> ()
  | _ -> Alcotest.fail "expected MPK violation");
  (* read-only page, owned key, write -> page fault dominates *)
  (match Page.check (entry Page.prot_r 1) ~pkru Page.Write with
  | Error (Page.Page_protection Page.Write) -> ()
  | _ -> Alcotest.fail "expected page protection fault")

let test_page_fetch_ignores_pkru () =
  (* Executable-only text: any uProcess may fetch, none may read (section
     4.1 "executable-only text segments can be executed by arbitrary
     uProcesses"). *)
  let pkru = Pkru.all_denied in
  check_bool "fetch allowed despite PKRU" true
    (Page.check (entry Page.prot_x 3) ~pkru Page.Fetch = Ok ());
  (match Page.check (entry Page.prot_x 3) ~pkru Page.Read with
  | Error (Page.Page_protection Page.Read) -> ()
  | _ -> Alcotest.fail "expected read to be blocked at page level")

let test_pt_map_and_access () =
  let pt = Page_table.create () in
  Page_table.map_range pt ~addr:0x10000 ~len:8192 ~prot:Page.prot_rw
    ~pkey:(Pkey.of_int 2);
  let pkru = Pkru.make [ (Pkey.of_int 2, Pkru.Read_write) ] in
  check_bool "mapped ok" true
    (Page_table.access pt ~pkru ~addr:0x10010 Page.Read = Ok ());
  check_bool "unmapped faults" true
    (Page_table.access pt ~pkru ~addr:0x90000 Page.Read = Error Page.Not_mapped);
  check_int "two pages" 2 (Page_table.mapped_pages pt)

let test_pt_pkey_protect () =
  let pt = Page_table.create () in
  Page_table.map_range pt ~addr:0 ~len:4096 ~prot:Page.prot_rw
    ~pkey:(Pkey.of_int 1);
  Page_table.pkey_protect_range pt ~addr:0 ~len:4096 ~pkey:(Pkey.of_int 9);
  (match Page_table.lookup pt ~addr:0 with
  | Some e ->
      check_int "retagged" 9 (Pkey.to_int e.Page.pkey);
      check_bool "prot kept" true (e.Page.prot.Page.write)
  | None -> Alcotest.fail "unmapped");
  check_bool "unmapped retag rejected" true
    (try
       Page_table.pkey_protect_range pt ~addr:8192 ~len:4096
         ~pkey:(Pkey.of_int 9);
       false
     with Invalid_argument _ -> true)

let test_pt_access_range_reports_fault_addr () =
  let pt = Page_table.create () in
  Page_table.map_range pt ~addr:0 ~len:4096 ~prot:Page.prot_rw
    ~pkey:(Pkey.of_int 1);
  let pkru = Pkru.make [ (Pkey.of_int 1, Pkru.Read_write) ] in
  match Page_table.access_range pt ~pkru ~addr:0 ~len:8192 Page.Read with
  | Error (addr, Page.Not_mapped) -> check_int "fault at page 1" 4096 addr
  | _ -> Alcotest.fail "expected fault on second page"

let test_pt_protect_keeps_key () =
  let pt = Page_table.create () in
  Page_table.map_range pt ~addr:0 ~len:4096 ~prot:Page.prot_rw
    ~pkey:(Pkey.of_int 4);
  Page_table.protect_range pt ~addr:0 ~len:4096 ~prot:Page.prot_x;
  match Page_table.lookup pt ~addr:100 with
  | Some e ->
      check_int "key kept" 4 (Pkey.to_int e.Page.pkey);
      check_bool "now exec-only" true
        (e.Page.prot.Page.exec && not e.Page.prot.Page.read)
  | None -> Alcotest.fail "unmapped"

(* Differential: the range page table against the per-page model it
   replaced (one hash entry per page). *)
module Ref_pt = struct
  type t = (int, Page.entry) Hashtbl.t

  let span ~addr ~len =
    if len <= 0 then invalid_arg "Page_table: len must be positive";
    if addr < 0 then invalid_arg "Page_table: negative address";
    (Page.number_of_addr addr, Page.number_of_addr (addr + len - 1))

  let map_range t ~addr ~len ~prot ~pkey =
    let first, last = span ~addr ~len in
    for n = first to last do
      Hashtbl.replace t n { Page.prot; pkey }
    done

  let unmap_range t ~addr ~len =
    let first, last = span ~addr ~len in
    for n = first to last do
      Hashtbl.remove t n
    done

  let update_range name t ~addr ~len f =
    let first, last = span ~addr ~len in
    for n = first to last do
      if not (Hashtbl.mem t n) then
        invalid_arg
          (Printf.sprintf "%s: page %d (addr 0x%x) not mapped" name n
             (Page.base_of_number n))
    done;
    for n = first to last do
      Hashtbl.replace t n (f (Hashtbl.find t n))
    done

  let lookup t ~addr = Hashtbl.find_opt t (Page.number_of_addr addr)

  let access t ~pkru ~addr kind =
    match lookup t ~addr with
    | None -> Error Page.Not_mapped
    | Some e -> Page.check e ~pkru kind

  let access_range t ~pkru ~addr ~len kind =
    let first, last = span ~addr ~len in
    let rec go n =
      if n > last then Ok ()
      else
        let page_addr = Int.max addr (Page.base_of_number n) in
        match access t ~pkru ~addr:page_addr kind with
        | Ok () -> go (n + 1)
        | Error f -> Error (page_addr, f)
    in
    go first
end

type pt_op =
  | Map of int * int * int * int (* addr, len, prot index, key *)
  | Unmap of int * int
  | Protect of int * int * int
  | Pkey_protect of int * int * int

let pt_prots = [| Page.prot_none; Page.prot_r; Page.prot_rw; Page.prot_rx; Page.prot_x |]
let pt_space_pages = 48

let pt_op_gen =
  let open QCheck.Gen in
  (* Page-aligned and unaligned starts over a small space, so ranges
     overlap, abut and nest often. *)
  let addr =
    map2 (fun p off -> (p * Page.size) + off) (int_bound (pt_space_pages - 1))
      (oneofl [ 0; 0; 1; 2047; Page.size - 1 ])
  in
  let len =
    map2 (fun p off -> Int.max 1 ((p * Page.size) + off)) (int_bound 12)
      (oneofl [ 0; 0; 1; 100; Page.size - 1 ])
  in
  let key = int_range 1 4 and prot = int_bound (Array.length pt_prots - 1) in
  frequency
    [
      (4, map (fun (a, l, p, k) -> Map (a, l, p, k)) (quad addr len prot key));
      (2, map2 (fun a l -> Unmap (a, l)) addr len);
      (2, map (fun (a, l, p) -> Protect (a, l, p)) (triple addr len prot));
      (2, map (fun (a, l, k) -> Pkey_protect (a, l, k)) (triple addr len key));
    ]

let pt_op_print = function
  | Map (a, l, p, k) -> Printf.sprintf "map 0x%x+%d prot%d key%d" a l p k
  | Unmap (a, l) -> Printf.sprintf "unmap 0x%x+%d" a l
  | Protect (a, l, p) -> Printf.sprintf "protect 0x%x+%d prot%d" a l p
  | Pkey_protect (a, l, k) -> Printf.sprintf "pkey_protect 0x%x+%d key%d" a l k

let pt_pkrus =
  [
    Pkru.all_denied;
    Pkru.make [ (Pkey.of_int 1, Pkru.Read_write); (Pkey.of_int 2, Pkru.Read_only) ];
    Pkru.make
      (List.init 4 (fun k -> (Pkey.of_int (k + 1), Pkru.Read_write)));
  ]

let pt_kinds = [ Page.Read; Page.Write; Page.Fetch ]

(* Every observable of the two tables agrees: lookup and access on each
   page, access_range from each page start over short and long spans,
   and the page count. *)
let pt_agree pt model =
  let ok = ref (Page_table.mapped_pages pt = Hashtbl.length model) in
  for p = 0 to pt_space_pages + 14 do
    let addr = (p * Page.size) + 5 in
    ok := !ok && Page_table.lookup pt ~addr = Ref_pt.lookup model ~addr;
    List.iter
      (fun pkru ->
        List.iter
          (fun kind ->
            ok :=
              !ok
              && Page_table.access pt ~pkru ~addr kind
                 = Ref_pt.access model ~pkru ~addr kind;
            List.iter
              (fun len ->
                ok :=
                  !ok
                  && Page_table.access_range pt ~pkru ~addr ~len kind
                     = Ref_pt.access_range model ~pkru ~addr ~len kind)
              [ 1; Page.size; 3 * Page.size; 17 * Page.size ])
          pt_kinds)
      pt_pkrus
  done;
  !ok

let outcome f = match f () with () -> Ok () | exception Invalid_argument m -> Error m

let prop_pt_differential =
  QCheck.Test.make ~name:"page table: ranges agree with per-page model"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(list pt_op_print)
       QCheck.Gen.(list_size (int_range 1 25) pt_op_gen))
    (fun ops ->
      let pt = Page_table.create () and model = Hashtbl.create 64 in
      List.for_all
        (fun op ->
          let got, want =
            match op with
            | Map (addr, len, p, k) ->
                let prot = pt_prots.(p) and pkey = Pkey.of_int k in
                ( outcome (fun () -> Page_table.map_range pt ~addr ~len ~prot ~pkey),
                  outcome (fun () -> Ref_pt.map_range model ~addr ~len ~prot ~pkey) )
            | Unmap (addr, len) ->
                ( outcome (fun () -> Page_table.unmap_range pt ~addr ~len),
                  outcome (fun () -> Ref_pt.unmap_range model ~addr ~len) )
            | Protect (addr, len, p) ->
                let prot = pt_prots.(p) in
                ( outcome (fun () -> Page_table.protect_range pt ~addr ~len ~prot),
                  outcome (fun () ->
                      Ref_pt.update_range "Page_table.protect_range" model ~addr
                        ~len (fun e -> { e with Page.prot })) )
            | Pkey_protect (addr, len, k) ->
                let pkey = Pkey.of_int k in
                ( outcome (fun () -> Page_table.pkey_protect_range pt ~addr ~len ~pkey),
                  outcome (fun () ->
                      Ref_pt.update_range "Page_table.pkey_protect_range" model
                        ~addr ~len (fun e -> { e with Page.pkey })) )
          in
          (* A rejected protect leaves both tables as they were, which
             [pt_agree] then sees. *)
          got = want && pt_agree pt model)
        ops)

(* ------------------------------------------------------------------ *)
(* Uintr *)

let test_uintr_notify_running () =
  let notified = ref [] in
  let fabric = Uintr.create ~notify:(fun r -> notified := Uintr.receiver_id r :: !notified) in
  let r = Uintr.register_receiver fabric ~id:3 in
  Uintr.set_running fabric r true;
  let uitt = Uintr.create_uitt fabric ~size:4 in
  Uintr.uitt_set uitt ~index:0 r ~vector:5;
  (match Uintr.senduipi fabric uitt ~index:0 with
  | `Notified -> ()
  | `Deferred -> Alcotest.fail "expected notify");
  Alcotest.(check (list int)) "notified" [ 3 ] !notified;
  Alcotest.(check (list int)) "vector pending" [ 5 ] (Uintr.take_pending r);
  check_bool "pir cleared" false (Uintr.has_pending r)

let test_uintr_deferred_until_running () =
  let notified = ref 0 in
  let fabric = Uintr.create ~notify:(fun _ -> incr notified) in
  let r = Uintr.register_receiver fabric ~id:0 in
  let uitt = Uintr.create_uitt fabric ~size:1 in
  Uintr.uitt_set uitt ~index:0 r ~vector:1;
  (match Uintr.senduipi fabric uitt ~index:0 with
  | `Deferred -> ()
  | `Notified -> Alcotest.fail "receiver not running");
  check_int "no notify yet" 0 !notified;
  check_bool "pending" true (Uintr.has_pending r);
  (* Deferred delivery fires when the receiver is scheduled back in
     (section 2.2: "delivery is deferred until the receiver is active"). *)
  Uintr.set_running fabric r true;
  check_int "notified on resume" 1 !notified

let test_uintr_suppression () =
  let notified = ref 0 in
  let fabric = Uintr.create ~notify:(fun _ -> incr notified) in
  let r = Uintr.register_receiver fabric ~id:0 in
  Uintr.set_running fabric r true;
  Uintr.set_suppressed fabric r true;
  let uitt = Uintr.create_uitt fabric ~size:1 in
  Uintr.uitt_set uitt ~index:0 r ~vector:2;
  (match Uintr.senduipi fabric uitt ~index:0 with
  | `Deferred -> ()
  | `Notified -> Alcotest.fail "suppressed");
  Uintr.set_suppressed fabric r false;
  check_int "notified on unsuppress" 1 !notified

let test_uintr_multiple_vectors () =
  let fabric = Uintr.create ~notify:(fun _ -> ()) in
  let r = Uintr.register_receiver fabric ~id:0 in
  let uitt = Uintr.create_uitt fabric ~size:3 in
  Uintr.uitt_set uitt ~index:0 r ~vector:7;
  Uintr.uitt_set uitt ~index:1 r ~vector:2;
  Uintr.uitt_set uitt ~index:2 r ~vector:7;
  ignore (Uintr.senduipi fabric uitt ~index:0);
  ignore (Uintr.senduipi fabric uitt ~index:1);
  ignore (Uintr.senduipi fabric uitt ~index:2);
  (* PIR is a bitmap: duplicate vector collapses, order is vector order. *)
  Alcotest.(check (list int)) "vectors" [ 2; 7 ] (Uintr.take_pending r)

let test_uintr_bad_args () =
  let fabric = Uintr.create ~notify:(fun _ -> ()) in
  let r = Uintr.register_receiver fabric ~id:0 in
  let uitt = Uintr.create_uitt fabric ~size:1 in
  check_bool "bad vector" true
    (try Uintr.uitt_set uitt ~index:0 r ~vector:64; false
     with Invalid_argument _ -> true);
  check_bool "empty entry" true
    (try ignore (Uintr.senduipi fabric uitt ~index:0); false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Ipi *)

let test_ipi_delivery_delay () =
  let sim = Sim.create () in
  let cost = Cost_model.default in
  let ipi = Ipi.create sim cost in
  let delivered_at = ref (-1) in
  Ipi.send ipi ~to_core:1 ~on_deliver:(fun sim -> delivered_at := Sim.now sim);
  Sim.run_until sim 1_000_000;
  check_int "delivered after ioctl+flight"
    (cost.Cost_model.ioctl + cost.Cost_model.ipi_flight)
    !delivered_at;
  check_int "counted" 1 (Ipi.sent ipi)

(* ------------------------------------------------------------------ *)
(* Cache *)

let test_cache_hit_after_miss () =
  let c = Cache.create ~capacity:(64 * 16 * 4) () in
  check_bool "first is miss" true (Cache.access c 0 = `Miss);
  check_bool "second is hit" true (Cache.access c 0 = `Hit);
  check_bool "same line" true (Cache.access c 63 = `Hit);
  check_bool "next line misses" true (Cache.access c 64 = `Miss)

let test_cache_lru_eviction () =
  (* 2-way, 1 set: third distinct block evicts the least recent. *)
  let c = Cache.create ~line:64 ~assoc:2 ~capacity:128 () in
  ignore (Cache.access c 0);
  ignore (Cache.access c 64);
  ignore (Cache.access c 0);
  (* 64 is now LRU *)
  ignore (Cache.access c 128);
  (* evicts 64 *)
  check_bool "0 still resident" true (Cache.access c 0 = `Hit);
  check_bool "64 evicted" true (Cache.access c 64 = `Miss)

let test_cache_working_sets () =
  (* Two disjoint working sets that together fit => almost no misses after
     warmup; the Fig-11 VESSEL case. *)
  let c = Cache.create ~capacity:(2 * 1024 * 1024) () in
  let touch base = Cache.access_run c ~addr:base ~len:(512 * 1024) () in
  touch 0;
  touch (1024 * 1024);
  Cache.reset_counters c;
  for _ = 1 to 10 do
    touch 0;
    touch (1024 * 1024)
  done;
  check_bool "steady state mostly hits" true (Cache.miss_rate c < 0.01)

let test_cache_flush_and_counters () =
  let c = Cache.create ~capacity:(64 * 16 * 2) () in
  ignore (Cache.access c 0);
  Cache.flush c;
  check_bool "miss after flush" true (Cache.access c 0 = `Miss);
  check_int "accesses" 2 (Cache.accesses c);
  check_int "misses" 2 (Cache.misses c);
  Cache.reset_counters c;
  check_int "reset" 0 (Cache.accesses c)

let test_cache_validation () =
  check_bool "bad capacity" true
    (try ignore (Cache.create ~line:64 ~assoc:16 ~capacity:1000 ()); false
     with Invalid_argument _ -> true)

(* Differential: the single-pass Cache kernel against the original
   per-line model, kept here verbatim as the reference. *)

module Ref_cache = struct
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

  let create ~line ~assoc ~capacity =
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

  let access t addr =
    if addr < 0 then invalid_arg "Cache.access: negative address";
    t.accesses <- t.accesses + 1;
    t.tick <- t.tick + 1;
    let block = addr / t.line in
    let set = block mod t.nsets in
    let tag = block / t.nsets in
    let base = set * t.assoc in
    let rec find i = if i = t.assoc then None
      else if t.tags.(base + i) = tag then Some i
      else find (i + 1)
    in
    match find 0 with
    | Some i ->
        t.stamps.(base + i) <- t.tick;
        `Hit
    | None ->
        t.misses <- t.misses + 1;
        (* Victim: an invalid way if any, else the LRU way. *)
        let victim = ref 0 in
        (try
           for i = 0 to t.assoc - 1 do
             if t.tags.(base + i) = -1 then begin
               victim := i;
               raise Exit
             end;
             if t.stamps.(base + i) < t.stamps.(base + !victim) then victim := i
           done
         with Exit -> ());
        t.tags.(base + !victim) <- tag;
        t.stamps.(base + !victim) <- t.tick;
        `Miss

  let access_run t ?(word_accesses = 1) ~addr ~len () =
    if len > 0 then begin
      let first = addr / t.line and last = (addr + len - 1) / t.line in
      for b = first to last do
        ignore (access t (b * t.line));
        if word_accesses > 1 then begin
          t.accesses <- t.accesses + (word_accesses - 1);
          t.tick <- t.tick + (word_accesses - 1)
        end
      done
    end

  let flush t =
    Array.fill t.tags 0 (Array.length t.tags) (-1);
    Array.fill t.stamps 0 (Array.length t.stamps) 0
end

type cache_op =
  | C_access of int
  | C_run of int * int * int (* addr, len, word_accesses *)
  | C_flush

let cache_op_print = function
  | C_access a -> Printf.sprintf "access %d" a
  | C_run (a, l, w) -> Printf.sprintf "run %d+%d x%d" a l w
  | C_flush -> "flush"

(* Geometries: (line, assoc, sets) with non-power-of-two set counts and
   line sizes; addresses span a few times the capacity so runs wrap the
   set index and conflict. *)
let cache_case_gen =
  let open QCheck.Gen in
  let* line = oneofl [ 16; 48; 64 ] in
  let* assoc = oneofl [ 1; 2; 3; 4 ] in
  let* sets = oneofl [ 1; 3; 5; 7; 8 ] in
  let span = 4 * line * assoc * sets in
  let op =
    frequency
      [
        (4, map (fun a -> C_access a) (int_bound span));
        ( 6,
          map3
            (fun a l w -> C_run (a, l, w))
            (int_bound span) (int_bound (2 * line * sets)) (int_range 0 4) );
        (1, return C_flush);
      ]
  in
  let* ops = list_size (int_range 1 40) op in
  return ((line, assoc, sets), ops)

let prop_cache_kernel_differential =
  QCheck.Test.make ~name:"cache: single-pass kernel == reference model"
    ~count:300
    (QCheck.make
       ~print:(fun ((line, assoc, sets), ops) ->
         Printf.sprintf "line=%d assoc=%d sets=%d: %s" line assoc sets
           (String.concat "; " (List.map cache_op_print ops)))
       cache_case_gen)
    (fun ((line, assoc, sets), ops) ->
      let capacity = line * assoc * sets in
      let c = Cache.create ~line ~assoc ~capacity () in
      let r = Ref_cache.create ~line ~assoc ~capacity in
      List.for_all
        (fun op ->
          let same_result =
            match op with
            | C_access a -> Cache.access c a = Ref_cache.access r a
            | C_run (addr, len, word_accesses) ->
                (* Per-line outcome: a run's miss delta must match. *)
                let m0 = Cache.misses c and r0 = r.Ref_cache.misses in
                Cache.access_run c ~word_accesses ~addr ~len ();
                Ref_cache.access_run r ~word_accesses ~addr ~len ();
                Cache.misses c - m0 = r.Ref_cache.misses - r0
            | C_flush ->
                Cache.flush c;
                Ref_cache.flush r;
                true
          in
          same_result
          && Cache.accesses c = r.Ref_cache.accesses
          && Cache.misses c = r.Ref_cache.misses)
        ops)

(* ------------------------------------------------------------------ *)
(* Membw *)

let test_membw_accounting () =
  let m = Membw.create ~capacity_bytes_per_ns:10. ~window:1_000 () in
  Membw.consume m ~app:1 ~bytes:5_000 ~at:100;
  Membw.consume m ~app:2 ~bytes:2_000 ~at:200;
  check_int "app1 total" 5_000 (Membw.total_bytes m ~app:1);
  Alcotest.(check (list int)) "apps" [ 1; 2 ] (Membw.apps m);
  Alcotest.(check (float 1e-9)) "achieved" 5.
    (Membw.achieved m ~app:1 ~wall:1_000)

let test_membw_congestion_kicks_in () =
  let m = Membw.create ~capacity_bytes_per_ns:10. ~window:1_000 () in
  (* Window 0: demand 2x capacity. *)
  Membw.consume m ~app:1 ~bytes:20_000 ~at:500;
  Alcotest.(check (float 1e-9)) "no congestion yet" 1. (Membw.congestion m);
  (* Rolling into window 1 publishes window 0's utilization. *)
  Membw.consume m ~app:1 ~bytes:1 ~at:1_500;
  Alcotest.(check (float 1e-9)) "2x congestion" 2. (Membw.congestion m);
  Alcotest.(check (float 1e-9)) "utilization" 2. (Membw.utilization m)

let test_membw_under_capacity_no_congestion () =
  let m = Membw.create ~capacity_bytes_per_ns:10. ~window:1_000 () in
  Membw.consume m ~app:1 ~bytes:4_000 ~at:500;
  Membw.consume m ~app:1 ~bytes:1 ~at:1_100;
  Alcotest.(check (float 1e-9)) "clamped at 1" 1. (Membw.congestion m);
  Alcotest.(check (float 1e-9)) "utilization 0.4" 0.4 (Membw.utilization m)

(* ------------------------------------------------------------------ *)
(* Umwait *)

let test_umwait_episodes () =
  let u = Umwait.create () in
  Umwait.enter u ~at:100;
  check_bool "idle" true (Umwait.is_idle u);
  Umwait.wake u ~at:350;
  check_int "total" 250 (Umwait.total_idle u);
  check_int "wakes" 1 (Umwait.wakes u);
  check_bool "double wake rejected" true
    (try Umwait.wake u ~at:400; false with Invalid_argument _ -> true);
  Umwait.enter u ~at:500;
  check_bool "double enter rejected" true
    (try Umwait.enter u ~at:600; false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Machine *)

let test_machine_assembly () =
  let sim = Sim.create () in
  let m = Machine.create ~cores:4 sim in
  check_int "ncores" 4 (Machine.ncores m);
  check_int "core ids" 2 (Core.id (Machine.core m 2));
  check_bool "default pkru denied" true
    (Pkru.equal (Core.pkru (Machine.core m 0)) Pkru.all_denied)

let test_machine_uintr_dispatch_wiring () =
  let sim = Sim.create () in
  let m = Machine.create ~cores:2 sim in
  let hits = ref [] in
  Machine.set_uintr_dispatch m (fun r -> hits := Uintr.receiver_id r :: !hits);
  let fabric = Machine.uintr m in
  let r = Uintr.register_receiver fabric ~id:9 in
  Uintr.set_running fabric r true;
  let uitt = Uintr.create_uitt fabric ~size:1 in
  Uintr.uitt_set uitt ~index:0 r ~vector:0;
  ignore (Uintr.senduipi fabric uitt ~index:0);
  Alcotest.(check (list int)) "dispatch invoked" [ 9 ] !hits;
  (* A second domain may install its own routine; both then fire. *)
  let hits2 = ref 0 in
  Machine.set_uintr_dispatch m (fun _ -> incr hits2);
  ignore (Uintr.senduipi fabric uitt ~index:0);
  Alcotest.(check (list int)) "first handler again" [ 9; 9 ] !hits;
  check_int "second handler fired" 1 !hits2

let test_machine_accounting_merge () =
  let sim = Sim.create () in
  let m = Machine.create ~cores:2 sim in
  Core.charge (Machine.core m 0) (Vessel_stats.Cycle_account.App 1) 100;
  Core.charge (Machine.core m 1) Vessel_stats.Cycle_account.Kernel 40;
  let acc = Machine.total_account m in
  check_int "app" 100 (Vessel_stats.Cycle_account.app_total acc);
  check_int "kernel" 40
    (Vessel_stats.Cycle_account.total acc Vessel_stats.Cycle_account.Kernel)

let test_machine_jitter_deterministic () =
  let mk () =
    let sim = Sim.create ~seed:5 () in
    let m = Machine.create ~cores:1 sim in
    List.init 20 (fun _ -> Machine.jitter m (Machine.core m 0) 1_000)
  in
  Alcotest.(check (list int)) "same seed same jitter" (mk ()) (mk ())

let suite =
  [
    ( "hw.cost_model",
      [
        Alcotest.test_case "vessel switch ~161ns (Table 1)" `Quick
          test_cost_vessel_switch_calibrated;
        Alcotest.test_case "caladan park ~2.1us (Table 1)" `Quick
          test_cost_caladan_park_calibrated;
        Alcotest.test_case "caladan preempt ~5.3us (Fig 3)" `Quick
          test_cost_caladan_preempt_calibrated;
        Alcotest.test_case "cost ordering" `Quick test_cost_ordering;
        Alcotest.test_case "jitter tail shape" `Quick test_cost_jitter_shape;
        Alcotest.test_case "override" `Quick test_cost_override;
      ] );
    ( "hw.pkey",
      [
        Alcotest.test_case "layout (13 uprocs, 14/15 reserved)" `Quick
          test_pkey_layout;
        Alcotest.test_case "limits" `Quick test_pkey_limits;
      ] );
    ( "hw.pkru",
      [
        Alcotest.test_case "all denied" `Quick test_pkru_all_denied;
        Alcotest.test_case "grants" `Quick test_pkru_grants;
        Alcotest.test_case "set isolation" `Quick test_pkru_set_isolated;
        Alcotest.test_case "roundtrip" `Quick test_pkru_roundtrip;
        QCheck_alcotest.to_alcotest prop_pkru_set_then_perm;
      ] );
    ( "hw.page_table",
      [
        Alcotest.test_case "check matrix" `Quick test_page_check_matrix;
        Alcotest.test_case "fetch ignores PKRU (exec-only text)" `Quick
          test_page_fetch_ignores_pkru;
        Alcotest.test_case "map/access" `Quick test_pt_map_and_access;
        Alcotest.test_case "pkey_mprotect" `Quick test_pt_pkey_protect;
        Alcotest.test_case "range fault address" `Quick
          test_pt_access_range_reports_fault_addr;
        Alcotest.test_case "mprotect keeps key" `Quick test_pt_protect_keeps_key;
        QCheck_alcotest.to_alcotest prop_pt_differential;
      ] );
    ( "hw.uintr",
      [
        Alcotest.test_case "notify when running" `Quick test_uintr_notify_running;
        Alcotest.test_case "deferred until running" `Quick
          test_uintr_deferred_until_running;
        Alcotest.test_case "suppression (SN bit)" `Quick test_uintr_suppression;
        Alcotest.test_case "PIR bitmap semantics" `Quick
          test_uintr_multiple_vectors;
        Alcotest.test_case "bad args" `Quick test_uintr_bad_args;
      ] );
    ("hw.ipi", [ Alcotest.test_case "delivery delay" `Quick test_ipi_delivery_delay ]);
    ( "hw.cache",
      [
        Alcotest.test_case "hit after miss" `Quick test_cache_hit_after_miss;
        Alcotest.test_case "LRU eviction" `Quick test_cache_lru_eviction;
        Alcotest.test_case "disjoint working sets coexist" `Quick
          test_cache_working_sets;
        Alcotest.test_case "flush/counters" `Quick test_cache_flush_and_counters;
        Alcotest.test_case "validation" `Quick test_cache_validation;
        QCheck_alcotest.to_alcotest prop_cache_kernel_differential;
      ] );
    ( "hw.membw",
      [
        Alcotest.test_case "accounting" `Quick test_membw_accounting;
        Alcotest.test_case "congestion over capacity" `Quick
          test_membw_congestion_kicks_in;
        Alcotest.test_case "no congestion under capacity" `Quick
          test_membw_under_capacity_no_congestion;
      ] );
    ("hw.umwait", [ Alcotest.test_case "episodes" `Quick test_umwait_episodes ]);
    ( "hw.machine",
      [
        Alcotest.test_case "assembly" `Quick test_machine_assembly;
        Alcotest.test_case "uintr dispatch wiring" `Quick
          test_machine_uintr_dispatch_wiring;
        Alcotest.test_case "accounting merge" `Quick test_machine_accounting_merge;
        Alcotest.test_case "deterministic jitter" `Quick
          test_machine_jitter_deterministic;
      ] );
  ]
