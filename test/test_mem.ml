(* Tests for the SMAS memory substrate: layout, access control through the
   page table + PKRU, the jemalloc-style allocator, image generation,
   WRPKRU inspection and the loader. *)

open Vessel_mem
module Hw = Vessel_hw
module Rng = Vessel_engine.Rng

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let rng () = Rng.create ~seed:123

(* ------------------------------------------------------------------ *)
(* Addr *)

let test_addr_align () =
  check_int "up" 4096 (Addr.align_up 1 4096);
  check_int "already" 4096 (Addr.align_up 4096 4096);
  check_int "down" 4096 (Addr.align_down 8191 4096);
  check_bool "aligned" true (Addr.is_aligned 8192 4096);
  check_bool "not aligned" false (Addr.is_aligned 8193 4096);
  check_int "mib" 1048576 (Addr.mib 1);
  check_bool "non-pow2 rejected" true
    (try ignore (Addr.align_up 5 3); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Region *)

let test_region_basics () =
  let r =
    Region.make ~name:"r" ~base:8192 ~len:8192 ~kind:Region.Uprocess_data
      ~pkey:(Hw.Pkey.of_int 1)
  in
  check_bool "contains base" true (Region.contains r 8192);
  check_bool "contains last" true (Region.contains r 16383);
  check_bool "excludes end" false (Region.contains r 16384);
  check_bool "range in" true (Region.contains_range r ~addr:9000 ~len:100);
  check_bool "range out" false (Region.contains_range r ~addr:16000 ~len:1000)

let test_region_overlap () =
  let mk base =
    Region.make ~name:"r" ~base ~len:8192 ~kind:Region.Uprocess_data
      ~pkey:(Hw.Pkey.of_int 1)
  in
  check_bool "overlapping" true (Region.overlaps (mk 0) (mk 4096));
  check_bool "adjacent disjoint" false (Region.overlaps (mk 0) (mk 8192))

let test_region_validation () =
  check_bool "unaligned rejected" true
    (try
       ignore
         (Region.make ~name:"r" ~base:100 ~len:4096 ~kind:Region.Uprocess_data
            ~pkey:(Hw.Pkey.of_int 1));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Layout *)

let test_layout_structure () =
  let l = Layout.create ~slots:3 () in
  check_int "slots" 3 (Layout.slots l);
  (* 3 text + 3 data + pipe + runtime text + runtime data = 9 regions *)
  check_int "regions" 9 (List.length (Layout.all_regions l));
  check_int "slot0 key" 1 (Hw.Pkey.to_int (Layout.slot_pkey l 0));
  check_int "pipe key" 15
    (Hw.Pkey.to_int (Layout.message_pipe l).Region.pkey);
  check_int "runtime key" 14
    (Hw.Pkey.to_int (Layout.runtime_data l).Region.pkey)

let test_layout_disjoint_and_ordered () =
  let l = Layout.create ~slots:5 () in
  let rs = Layout.all_regions l in
  let rec pairwise = function
    | a :: (b :: _ as rest) ->
        check_bool "ordered" true (Region.end_ a <= b.Region.base);
        pairwise rest
    | _ -> ()
  in
  pairwise rs;
  (* Runtime sits at the end of SMAS, "to imitate the kernel space". *)
  let last = List.nth rs (List.length rs - 1) in
  check_bool "runtime last" true (last.Region.kind = Region.Runtime_data)

let test_layout_slot_limit () =
  check_bool "14 slots rejected" true
    (try ignore (Layout.create ~slots:14 ()); false
     with Invalid_argument _ -> true);
  ignore (Layout.create ~slots:13 ())

let test_layout_region_of_addr () =
  let l = Layout.create ~slots:1 () in
  let d = Layout.slot_data l 0 in
  (match Layout.region_of_addr l (d.Region.base + 5) with
  | Some r -> Alcotest.(check string) "found" d.Region.name r.Region.name
  | None -> Alcotest.fail "missing");
  check_bool "outside" true (Layout.region_of_addr l 0 = None)

(* ------------------------------------------------------------------ *)
(* Smas: the isolation properties of section 4.1. *)

let mk_smas slots = Smas.create (Layout.create ~slots ())

let test_smas_own_region_rw () =
  let s = mk_smas 2 in
  Smas.attach_slot_data s 0;
  let d = Layout.slot_data (Smas.layout s) 0 in
  let pkru = Smas.pkru_for_slot s 0 in
  let addr = d.Region.base + 64 in
  (match Smas.write s ~pkru ~addr (Bytes.of_string "hello") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "own write should succeed");
  match Smas.read s ~pkru ~addr ~len:5 with
  | Ok b -> Alcotest.(check string) "roundtrip" "hello" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "own read should succeed"

let test_smas_cross_uprocess_faults () =
  (* The core isolation claim: uProcess 0 cannot touch uProcess 1's data. *)
  let s = mk_smas 2 in
  Smas.attach_slot_data s 0;
  Smas.attach_slot_data s 1;
  let d1 = Layout.slot_data (Smas.layout s) 1 in
  let pkru0 = Smas.pkru_for_slot s 0 in
  (match Smas.read s ~pkru:pkru0 ~addr:d1.Region.base ~len:8 with
  | Error (_, Hw.Page.Mpk_violation _) -> ()
  | _ -> Alcotest.fail "cross-uProcess read must MPK-fault");
  match Smas.write s ~pkru:pkru0 ~addr:d1.Region.base (Bytes.make 8 'x') with
  | Error (_, Hw.Page.Mpk_violation _) -> ()
  | _ -> Alcotest.fail "cross-uProcess write must MPK-fault"

let test_smas_runtime_region_invisible () =
  (* "Runtime region ... is invisible to all uProcesses." *)
  let s = mk_smas 1 in
  let rt = Layout.runtime_data (Smas.layout s) in
  let pkru = Smas.pkru_for_slot s 0 in
  match Smas.read s ~pkru ~addr:rt.Region.base ~len:8 with
  | Error (_, Hw.Page.Mpk_violation _) -> ()
  | _ -> Alcotest.fail "runtime data must be invisible to uProcesses"

let test_smas_pipe_read_only () =
  (* "All uProcesses only have read permissions to it while the runtime can
     both read and write it." *)
  let s = mk_smas 1 in
  let pipe = Layout.message_pipe (Smas.layout s) in
  let upkru = Smas.pkru_for_slot s 0 in
  let rtpkru = Smas.pkru_runtime s in
  (match Smas.write s ~pkru:rtpkru ~addr:pipe.Region.base (Bytes.of_string "map") with
  | Ok () -> ()
  | Error _ -> Alcotest.fail "runtime write to pipe should succeed");
  (match Smas.read s ~pkru:upkru ~addr:pipe.Region.base ~len:3 with
  | Ok b -> Alcotest.(check string) "uproc reads pipe" "map" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "uproc read of pipe should succeed");
  match Smas.write s ~pkru:upkru ~addr:pipe.Region.base (Bytes.of_string "x") with
  | Error (_, Hw.Page.Mpk_violation _) -> ()
  | _ -> Alcotest.fail "uproc write to pipe must MPK-fault"

let test_smas_runtime_pkru_sees_all () =
  let s = mk_smas 2 in
  Smas.attach_slot_data s 0;
  Smas.attach_slot_data s 1;
  let rt = Smas.pkru_runtime s in
  let d0 = Layout.slot_data (Smas.layout s) 0 in
  let d1 = Layout.slot_data (Smas.layout s) 1 in
  check_bool "writes slot0" true
    (Smas.write s ~pkru:rt ~addr:d0.Region.base (Bytes.make 4 'a') = Ok ());
  check_bool "writes slot1" true
    (Smas.write s ~pkru:rt ~addr:d1.Region.base (Bytes.make 4 'b') = Ok ())

let test_smas_unattached_faults () =
  let s = mk_smas 1 in
  let d = Layout.slot_data (Smas.layout s) 0 in
  let pkru = Smas.pkru_for_slot s 0 in
  match Smas.read s ~pkru ~addr:d.Region.base ~len:1 with
  | Error (_, Hw.Page.Not_mapped) -> ()
  | _ -> Alcotest.fail "unattached slot data must be unmapped"

let test_smas_cross_page_write () =
  let s = mk_smas 1 in
  Smas.attach_slot_data s 0;
  let d = Layout.slot_data (Smas.layout s) 0 in
  let pkru = Smas.pkru_for_slot s 0 in
  let addr = d.Region.base + Hw.Page.size - 3 in
  let payload = Bytes.of_string "abcdefgh" in
  check_bool "cross-page write ok" true (Smas.write s ~pkru ~addr payload = Ok ());
  match Smas.read s ~pkru ~addr ~len:8 with
  | Ok b -> Alcotest.(check string) "cross-page read" "abcdefgh" (Bytes.to_string b)
  | Error _ -> Alcotest.fail "read failed"

(* Reclaim path: releasing slot 1's data region after its first pages
   were already released, so the range spans a hole and a mapped part,
   between two live neighbours (slot data regions are contiguous). *)
let test_smas_release_hole_and_region () =
  let s = mk_smas 3 in
  List.iter (Smas.attach_slot_data s) [ 0; 1; 2 ];
  let l = Smas.layout s and pt = Smas.page_table s in
  let rt = Smas.pkru_runtime s in
  let d0 = Layout.slot_data l 0
  and d1 = Layout.slot_data l 1
  and d2 = Layout.slot_data l 2 in
  let put addr str =
    check_bool "write" true (Smas.write s ~pkru:rt ~addr (Bytes.of_string str) = Ok ())
  in
  let get addr len =
    match Smas.read s ~pkru:rt ~addr ~len with
    | Ok b -> Bytes.to_string b
    | Error _ -> Alcotest.fail "read faulted"
  in
  List.iter
    (fun (r : Region.t) ->
      put r.Region.base "head!";
      put (Region.end_ r - 5) "tail!")
    [ d0; d1; d2 ];
  let page = Hw.Page.size and before = Hw.Page_table.mapped_pages pt in
  Smas.release_range s ~addr:d1.Region.base ~len:(16 * page);
  check_int "hole of 16 pages" (before - 16) (Hw.Page_table.mapped_pages pt);
  Smas.release_range s ~addr:d1.Region.base ~len:d1.Region.len;
  check_int "only slot 1 data unmapped"
    (before - (d1.Region.len / page))
    (Hw.Page_table.mapped_pages pt);
  check_bool "slot 1 data gone" true
    (Hw.Page_table.lookup pt ~addr:(Region.end_ d1 - 1) = None);
  List.iter
    (fun (r : Region.t) ->
      check_bool (r.Region.name ^ " still mapped") true
        (Hw.Page_table.lookup pt ~addr:r.Region.base <> None
        && Hw.Page_table.lookup pt ~addr:(Region.end_ r - 1) <> None);
      Alcotest.(check string) (r.Region.name ^ " head kept") "head!"
        (get r.Region.base 5);
      Alcotest.(check string) (r.Region.name ^ " tail kept") "tail!"
        (get (Region.end_ r - 5) 5))
    [ d0; d2 ];
  Smas.detach_slot_data s 1;
  Smas.attach_slot_data s 1;
  check_int "remapped" before (Hw.Page_table.mapped_pages pt);
  Alcotest.(check string) "fresh head zeroed" "\000\000\000\000\000"
    (get d1.Region.base 5);
  Alcotest.(check string) "fresh tail zeroed" "\000\000\000\000\000"
    (get (Region.end_ d1 - 5) 5)

(* ------------------------------------------------------------------ *)
(* Allocator *)

let heap_region () =
  Region.make ~name:"heap" ~base:0x100000 ~len:(Addr.mib 1)
    ~kind:Region.Uprocess_data ~pkey:(Hw.Pkey.of_int 1)

let test_alloc_size_classes () =
  check_int "16" 16 (Allocator.size_class 1);
  check_int "16b" 16 (Allocator.size_class 16);
  check_int "32" 32 (Allocator.size_class 17);
  check_int "128" 128 (Allocator.size_class 128);
  check_int "160 is a class" 160 (Allocator.size_class 160);
  check_int "161 rounds to 192" 192 (Allocator.size_class 161);
  check_int "320" 320 (Allocator.size_class 300);
  check_int "page multiple" 20480 (Allocator.size_class 17000)

let test_alloc_basic () =
  let a = Allocator.create (heap_region ()) in
  let p1 = Result.get_ok (Allocator.malloc a 100) in
  let p2 = Result.get_ok (Allocator.malloc a 100) in
  check_bool "distinct" true (p1 <> p2);
  check_bool "in region" true (Region.contains (Allocator.region a) p1);
  check_int "usable" 112 (Allocator.usable_size a p1);
  check_int "live" 224 (Allocator.live_bytes a);
  Allocator.free a p1;
  check_int "live after free" 112 (Allocator.live_bytes a);
  (* Exact-class reuse: the freed block comes back. *)
  let p3 = Result.get_ok (Allocator.malloc a 101) in
  check_int "reused" p1 p3

let test_alloc_double_free () =
  let a = Allocator.create (heap_region ()) in
  let p = Result.get_ok (Allocator.malloc a 64) in
  Allocator.free a p;
  check_bool "double free rejected" true
    (try Allocator.free a p; false with Invalid_argument _ -> true)

let test_alloc_exhaustion () =
  let r =
    Region.make ~name:"tiny" ~base:0 ~len:Hw.Page.size
      ~kind:Region.Uprocess_data ~pkey:(Hw.Pkey.of_int 1)
  in
  let a = Allocator.create r in
  let rec drain n =
    match Allocator.malloc a 512 with
    | Ok _ -> drain (n + 1)
    | Error `Out_of_memory -> n
  in
  check_int "exactly 8 x 512 in a page" 8 (drain 0);
  (* Freeing returns capacity. *)
  ()

let test_alloc_aligned () =
  let a = Allocator.create (heap_region ()) in
  ignore (Allocator.malloc a 24);
  let p = Result.get_ok (Allocator.malloc_aligned a 4096 ~align:65536) in
  check_bool "aligned" true (Addr.is_aligned p 65536)

let test_alloc_reserve () =
  let r = heap_region () in
  let a = Allocator.create ~reserve:4096 r in
  let p = Result.get_ok (Allocator.malloc a 16) in
  check_bool "above reserve" true (p >= r.Region.base + 4096);
  check_int "capacity" (Addr.mib 1 - 4096) (Allocator.capacity a)

let prop_alloc_no_overlap =
  QCheck.Test.make ~name:"allocator: live allocations never overlap" ~count:50
    QCheck.(list_of_size (Gen.int_range 1 80) (int_range 1 2000))
    (fun sizes ->
      let a = Allocator.create (heap_region ()) in
      let live = ref [] in
      List.iteri
        (fun i size ->
          match Allocator.malloc a size with
          | Ok p ->
              live := (p, Allocator.usable_size a p) :: !live;
              (* Free every third allocation to churn the free lists. *)
              if i mod 3 = 2 then begin
                match !live with
                | (q, _) :: rest ->
                    Allocator.free a q;
                    live := rest
                | [] -> ()
              end
          | Error `Out_of_memory -> ())
        sizes;
      let rec no_overlap = function
        | [] -> true
        | (p, s) :: rest ->
            List.for_all (fun (q, t) -> p + s <= q || q + t <= p) rest
            && no_overlap rest
      in
      no_overlap !live)

(* ------------------------------------------------------------------ *)
(* Image / Inspect *)

let test_image_clean_by_default () =
  let img = Image.make ~name:"app" ~text_size:20_000 (rng ()) in
  Alcotest.(check (list int)) "no wrpkru" [] (Inspect.scan img.Image.text);
  check_bool "valid" true (Inspect.validate_image img = Ok ())

let test_image_embedded_wrpkru_found () =
  let img =
    Image.make ~name:"evil" ~text_size:10_000 ~embed_wrpkru_at:[ 123; 4567 ]
      (rng ())
  in
  Alcotest.(check (list int)) "both found" [ 123; 4567 ]
    (Inspect.scan img.Image.text);
  match Inspect.validate_image img with
  | Error msg -> check_bool "message names offset" true
      (String.length msg > 0)
  | Ok () -> Alcotest.fail "must be rejected"

let test_image_non_pie_rejected () =
  let img = Image.make ~pie:false ~name:"static" ~text_size:1000 (rng ()) in
  match Inspect.validate_image img with
  | Error msg ->
      check_bool "mentions PIE" true
        (String.length msg >= 3
        && (let has sub s =
              let n = String.length s and m = String.length sub in
              let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
              go 0
            in
            has "PIE" msg))
  | Ok () -> Alcotest.fail "non-PIE must be rejected"

let test_inspect_overlapping () =
  (* 0f 01 ef 0f 01 ef and a partial prefix: offsets 0 and 3 only. *)
  let b = Bytes.of_string "\x0f\x01\xef\x0f\x01\xef\x0f\x01" in
  Alcotest.(check (list int)) "offsets" [ 0; 3 ] (Inspect.scan b)

let test_image_bad_offset () =
  check_bool "rejected" true
    (try
       ignore (Image.make ~name:"x" ~text_size:10 ~embed_wrpkru_at:[ 9 ] (rng ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Loader *)

let test_loader_happy_path () =
  let s = mk_smas 2 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 r in
  let lib = Image.library ~name:"libfoo.so" ~text_size:8_000 r in
  let img = Image.make ~name:"app" ~text_size:30_000 ~entry:64 r in
  match Loader.load_program ld ~args:[ "app"; "--port"; "11211" ] ~libraries:[ lib ] img with
  | Error e -> Alcotest.failf "load failed: %a" Loader.pp_error e
  | Ok loaded ->
      check_int "slot" 0 loaded.Loader.slot;
      check_int "entry offset" 64 (loaded.Loader.entry_addr - loaded.Loader.text_base);
      check_int "one library" 1 (List.length loaded.Loader.libraries);
      (* Text is executable-only: fetch ok, read faults at page level. *)
      check_bool "fetch ok" true
        (Smas.fetch s ~addr:loaded.Loader.entry_addr ~len:16 = Ok ());
      (match
         Smas.read s ~pkru:(Smas.pkru_for_slot s 0) ~addr:loaded.Loader.text_base ~len:8
       with
      | Error (_, Hw.Page.Page_protection Hw.Page.Read) -> ()
      | _ -> Alcotest.fail "text must be executable-only");
      (* Data is writable by the owner. *)
      check_bool "data writable" true
        (Smas.write s ~pkru:(Smas.pkru_for_slot s 0) ~addr:loaded.Loader.data_base
           (Bytes.make 8 'd')
        = Ok ());
      (* The argv block was copied in. *)
      let argv = Smas.priv_read s ~addr:loaded.Loader.argv_addr ~len:17 in
      Alcotest.(check string) "argv" "app\000--port\00011211\000" (Bytes.to_string argv)

let test_loader_rejects_wrpkru_app () =
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 r in
  let img = Image.make ~name:"evil" ~text_size:5_000 ~embed_wrpkru_at:[ 77 ] r in
  match Loader.load_program ld img with
  | Error (Loader.Rejected _) -> ()
  | _ -> Alcotest.fail "WRPKRU-bearing app must be rejected"

let test_loader_rejects_wrpkru_library () =
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 r in
  let app = Image.make ~name:"app" ~text_size:5_000 r in
  let lib =
    Image.make ~name:"libevil.so" ~text_size:5_000 ~embed_wrpkru_at:[ 3 ] r
  in
  match Loader.load_program ld ~libraries:[ lib ] app with
  | Error (Loader.Rejected _) -> ()
  | _ -> Alcotest.fail "WRPKRU-bearing library must be rejected"

let test_loader_rejects_non_pie () =
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 r in
  let img = Image.make ~pie:false ~name:"pd" ~text_size:5_000 r in
  match Loader.load_program ld img with
  | Error (Loader.Rejected _) -> ()
  | _ -> Alcotest.fail "non-PIE must be rejected"

let test_loader_aslr_slides_differ () =
  let s = mk_smas 2 in
  let r = rng () in
  let ld0 = Loader.create s ~slot:0 r in
  let ld1 = Loader.create s ~slot:1 r in
  let img () = Image.make ~name:"app" ~text_size:5_000 r in
  let l0 = Result.get_ok (Loader.load_program ld0 (img ())) in
  let l1 = Result.get_ok (Loader.load_program ld1 (img ())) in
  (* With ~4096 possible page slides a collision is 1/4096; seed fixed. *)
  check_bool "slides differ" true (l0.Loader.aslr_slide <> l1.Loader.aslr_slide)

let test_loader_no_aslr () =
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 ~aslr:false r in
  let l = Result.get_ok (Loader.load_program ld (Image.make ~name:"a" ~text_size:4096 r)) in
  check_int "no slide" 0 l.Loader.aslr_slide;
  check_int "text at region base" (Layout.slot_text (Smas.layout s) 0).Region.base
    l.Loader.text_base

let test_loader_dlopen_wx_discipline () =
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 r in
  ignore (Result.get_ok (Loader.load_program ld (Image.make ~name:"a" ~text_size:4096 r)));
  (* Clean library: becomes executable. *)
  let ok = Image.library ~name:"libok.so" ~text_size:4096 r in
  (match Loader.dlopen ld ok with
  | Ok base -> check_bool "exec ok" true (Smas.fetch s ~addr:base ~len:8 = Ok ())
  | Error e -> Alcotest.failf "dlopen failed: %a" Loader.pp_error e);
  (* Dirty library: rejected, and its staging pages never become
     executable. *)
  let before = Loader.text_used ld in
  let evil = Image.make ~name:"libevil.so" ~text_size:4096 ~embed_wrpkru_at:[ 0 ] r in
  (match Loader.dlopen ld evil with
  | Error (Loader.Rejected _) -> ()
  | _ -> Alcotest.fail "dirty dlopen must be rejected");
  check_int "no text consumed by rejected load" before (Loader.text_used ld)

let test_loader_heap_above_image () =
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 r in
  let l = Result.get_ok (Loader.load_program ld (Image.make ~name:"a" ~text_size:4096 r)) in
  let heap = Loader.allocator ld in
  let p = Result.get_ok (Allocator.malloc heap 64) in
  check_bool "heap above argv" true (p >= l.Loader.argv_addr);
  check_bool "heap in data region" true
    (Region.contains (Allocator.region heap) p)

let test_loader_text_exhaustion () =
  let s = Smas.create (Layout.create ~slots:1 ~slot_text:(Addr.mib 1) ()) in
  let r = rng () in
  let ld = Loader.create s ~slot:0 ~aslr:false r in
  ignore (Result.get_ok (Loader.load_program ld (Image.make ~name:"a" ~text_size:4096 r)));
  let big = Image.library ~name:"libbig.so" ~text_size:(Addr.mib 2) r in
  match Loader.dlopen ld big with
  | Error Loader.No_text_space -> ()
  | _ -> Alcotest.fail "expected text exhaustion"

let test_loader_inspect_roundtrip () =
  (* The W^X story end to end: text that Inspect certified clean is what
     actually lands in SMAS — re-scanning the loaded bytes through the
     privileged window finds the same nothing, and a library's staged
     bytes match its image exactly. *)
  let s = mk_smas 1 in
  let r = rng () in
  let ld = Loader.create s ~slot:0 ~aslr:false r in
  let lib = Image.library ~name:"libok.so" ~text_size:4_096 r in
  let img = Image.make ~name:"app" ~text_size:8_192 r in
  match Loader.load_program ld ~libraries:[ lib ] img with
  | Error e -> Alcotest.failf "load failed: %a" Loader.pp_error e
  | Ok loaded ->
      let text =
        Smas.priv_read s ~addr:loaded.Loader.text_base ~len:8_192
      in
      Alcotest.(check (list int)) "loaded app text scans clean" []
        (Inspect.scan text);
      Alcotest.(check string) "app text bytes round-trip"
        (Bytes.to_string img.Image.text)
        (Bytes.to_string text);
      (match loaded.Loader.libraries with
      | [ (_, lib_base) ] ->
          let lib_text = Smas.priv_read s ~addr:lib_base ~len:4_096 in
          Alcotest.(check string) "library text bytes round-trip"
            (Bytes.to_string lib.Image.text)
            (Bytes.to_string lib_text)
      | _ -> Alcotest.fail "expected exactly one loaded library")

let suite =
  [
    ("mem.addr", [ Alcotest.test_case "alignment" `Quick test_addr_align ]);
    ( "mem.region",
      [
        Alcotest.test_case "basics" `Quick test_region_basics;
        Alcotest.test_case "overlap" `Quick test_region_overlap;
        Alcotest.test_case "validation" `Quick test_region_validation;
      ] );
    ( "mem.layout",
      [
        Alcotest.test_case "structure (Fig 5)" `Quick test_layout_structure;
        Alcotest.test_case "disjoint, runtime at end" `Quick
          test_layout_disjoint_and_ordered;
        Alcotest.test_case "13-slot limit" `Quick test_layout_slot_limit;
        Alcotest.test_case "region_of_addr" `Quick test_layout_region_of_addr;
      ] );
    ( "mem.smas",
      [
        Alcotest.test_case "own region rw" `Quick test_smas_own_region_rw;
        Alcotest.test_case "cross-uProcess isolation" `Quick
          test_smas_cross_uprocess_faults;
        Alcotest.test_case "runtime invisible to uProcesses" `Quick
          test_smas_runtime_region_invisible;
        Alcotest.test_case "pipe read-only to uProcesses" `Quick
          test_smas_pipe_read_only;
        Alcotest.test_case "runtime PKRU sees all" `Quick
          test_smas_runtime_pkru_sees_all;
        Alcotest.test_case "unattached slot unmapped" `Quick
          test_smas_unattached_faults;
        Alcotest.test_case "cross-page access" `Quick test_smas_cross_page_write;
        Alcotest.test_case "release over a hole and a region" `Quick
          test_smas_release_hole_and_region;
      ] );
    ( "mem.allocator",
      [
        Alcotest.test_case "size classes" `Quick test_alloc_size_classes;
        Alcotest.test_case "malloc/free/reuse" `Quick test_alloc_basic;
        Alcotest.test_case "double free" `Quick test_alloc_double_free;
        Alcotest.test_case "exhaustion" `Quick test_alloc_exhaustion;
        Alcotest.test_case "aligned" `Quick test_alloc_aligned;
        Alcotest.test_case "reserve" `Quick test_alloc_reserve;
        QCheck_alcotest.to_alcotest prop_alloc_no_overlap;
      ] );
    ( "mem.image",
      [
        Alcotest.test_case "clean by default" `Quick test_image_clean_by_default;
        Alcotest.test_case "embedded WRPKRU found" `Quick
          test_image_embedded_wrpkru_found;
        Alcotest.test_case "non-PIE rejected" `Quick test_image_non_pie_rejected;
        Alcotest.test_case "overlapping scan" `Quick test_inspect_overlapping;
        Alcotest.test_case "bad embed offset" `Quick test_image_bad_offset;
      ] );
    ( "mem.loader",
      [
        Alcotest.test_case "happy path" `Quick test_loader_happy_path;
        Alcotest.test_case "rejects WRPKRU app" `Quick
          test_loader_rejects_wrpkru_app;
        Alcotest.test_case "rejects WRPKRU library" `Quick
          test_loader_rejects_wrpkru_library;
        Alcotest.test_case "rejects non-PIE" `Quick test_loader_rejects_non_pie;
        Alcotest.test_case "ASLR slides differ" `Quick
          test_loader_aslr_slides_differ;
        Alcotest.test_case "ASLR off" `Quick test_loader_no_aslr;
        Alcotest.test_case "dlopen W^X discipline" `Quick
          test_loader_dlopen_wx_discipline;
        Alcotest.test_case "heap above image" `Quick test_loader_heap_above_image;
        Alcotest.test_case "text exhaustion" `Quick test_loader_text_exhaustion;
        Alcotest.test_case "loader/inspect round-trip" `Quick
          test_loader_inspect_roundtrip;
      ] );
  ]
