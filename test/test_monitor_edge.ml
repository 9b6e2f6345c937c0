(* Edge cases of the Secure Monitor's host and guest interfaces, the
   host memory allocator, and the chart/metrics additions. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

let make_platform ?(pool_mib = 8) () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let mon = Zion.Monitor.create machine in
  (match
     Zion.Monitor.register_secure_region mon
       ~base:(Int64.add Bus.dram_base (mib 128))
       ~size:(mib pool_mib)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  (machine, mon)

let lifecycle_tests =
  [
    Alcotest.test_case "zero vCPUs rejected" `Quick (fun () ->
        let _, mon = make_platform () in
        Alcotest.(check bool)
          "invalid" true
          (Zion.Monitor.create_cvm mon ~nvcpus:0 ~entry_pc:guest_entry
          = Error Zion.Ecall.Invalid_param));
    Alcotest.test_case "load after finalize rejected" `Quick (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        ignore (Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry "x");
        ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
        Alcotest.(check bool)
          "bad state" true
          (Zion.Monitor.load_image mon ~cvm:id ~gpa:0x20000L "y"
          = Error Zion.Ecall.Bad_state));
    Alcotest.test_case "double finalize rejected" `Quick (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
        Alcotest.(check bool)
          "bad state" true
          (Zion.Monitor.finalize_cvm mon ~cvm:id = Error Zion.Ecall.Bad_state));
    Alcotest.test_case "running an unfinalized CVM rejected" `Quick
      (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        Alcotest.(check bool)
          "bad state" true
          (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:10
          = Error Zion.Ecall.Bad_state));
    Alcotest.test_case "running a destroyed CVM rejected" `Quick (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
        ignore (Zion.Monitor.destroy_cvm mon ~cvm:id);
        Alcotest.(check bool)
          "bad state" true
          (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:10
          = Error Zion.Ecall.Bad_state);
        Alcotest.(check int) "no live CVMs" 0 (Zion.Monitor.cvm_count mon));
    Alcotest.test_case "unknown CVM id is Not_found" `Quick (fun () ->
        let _, mon = make_platform () in
        Alcotest.(check bool)
          "not found" true
          (Zion.Monitor.destroy_cvm mon ~cvm:999 = Error Zion.Ecall.Not_found));
    Alcotest.test_case "image into the shared half rejected" `Quick
      (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        Alcotest.(check bool)
          "invalid" true
          (Zion.Monitor.load_image mon ~cvm:id
             ~gpa:Zion.Layout.shared_gpa_base "evil"
          = Error Zion.Ecall.Invalid_param));
    Alcotest.test_case "unaligned image GPA rejected" `Quick (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        Alcotest.(check bool)
          "invalid" true
          (Zion.Monitor.load_image mon ~cvm:id ~gpa:0x10001L "x"
          = Error Zion.Ecall.Invalid_param));
    Alcotest.test_case "secure region must lie in DRAM" `Quick (fun () ->
        let machine = Machine.create ~dram_size:(mib 64) () in
        let mon = Zion.Monitor.create machine in
        Alcotest.(check bool)
          "invalid" true
          (Zion.Monitor.register_secure_region mon ~base:0x1000_0000L
             ~size:(mib 1)
          = Error Zion.Ecall.Invalid_param));
  ]

(* A registration PMP cannot guard must be refused before the region is
   linked: an [Error] leaves the pool, its free list and the audit
   exactly as they were. *)
let expect_region_refused mon ~base ~size =
  let sm = Zion.Monitor.secmem mon in
  let regions = Zion.Secmem.regions sm in
  let free = Zion.Secmem.free_blocks sm in
  let audit = Zion.Monitor.audit mon in
  Alcotest.(check bool) "audit clean before" true (Result.is_ok audit);
  Alcotest.(check bool)
    "invalid" true
    (Zion.Monitor.register_secure_region mon ~base ~size
    = Error Zion.Ecall.Invalid_param);
  Alcotest.(check (list (pair int64 int64)))
    "regions unchanged" regions (Zion.Secmem.regions sm);
  Alcotest.(check int) "free blocks unchanged" free
    (Zion.Secmem.free_blocks sm);
  Alcotest.(check bool) "audit unchanged" true (Zion.Monitor.audit mon = audit)

let pool_end = Int64.add Bus.dram_base (mib 136)

let region_tests =
  [
    Alcotest.test_case "block-aligned non-NAPOT region refused unlinked"
      `Quick (fun () ->
        let _, mon = make_platform () in
        expect_region_refused mon ~base:pool_end ~size:0xC_0000L);
    Alcotest.test_case "15th region refused unlinked" `Quick (fun () ->
        let _, mon = make_platform () in
        let block = Zion.Layout.default_block_size in
        let nth i = Int64.add pool_end (Int64.mul (Int64.of_int i) block) in
        for i = 0 to Zion.Pmp_guard.max_regions - 2 do
          match Zion.Monitor.register_secure_region mon ~base:(nth i) ~size:block with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        done;
        Alcotest.(check int) "pool at the PMP limit" Zion.Pmp_guard.max_regions
          (List.length (Zion.Secmem.regions (Zion.Monitor.secmem mon)));
        expect_region_refused mon ~base:(nth (Zion.Pmp_guard.max_regions - 1))
          ~size:block);
  ]

let run_to_shutdown mon id =
  match Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:200_000 with
  | Ok Zion.Monitor.Exit_shutdown -> ()
  | Ok _ -> Alcotest.fail "expected shutdown"
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)

let make_cvm mon prog =
  let id =
    Result.get_ok (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
  in
  (match
     Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry (Asm.program prog)
   with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
  id

let guest_api_tests =
  [
    Alcotest.test_case "guest randomness is deterministic per platform"
      `Quick (fun () ->
        (* Two identical platforms must serve identical random words
           (the simulated platform key is fixed), and successive calls
           must differ. *)
        let run_guest () =
          let _, mon = make_platform () in
          let prog =
            (* a0 <- random; print low byte; twice *)
            Asm.li Asm.a6 Zion.Ecall.fid_guest_random
            @ Asm.li Asm.a7 Zion.Ecall.ext_zion
            @ [ Decode.Ecall ]
            @ [ Decode.Op_imm (Decode.Add, Asm.a0, Asm.a1, 0L) ]
            @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
            @ [ Decode.Ecall ]
            @ Asm.li Asm.a6 Zion.Ecall.fid_guest_random
            @ Asm.li Asm.a7 Zion.Ecall.ext_zion
            @ [ Decode.Ecall ]
            @ [ Decode.Op_imm (Decode.Add, Asm.a0, Asm.a1, 0L) ]
            @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
            @ [ Decode.Ecall ]
            @ Guest.Gprog.shutdown
          in
          let id = make_cvm mon prog in
          run_to_shutdown mon id;
          Zion.Monitor.console_output mon
        in
        let a = run_guest () and b = run_guest () in
        Alcotest.(check string) "reproducible" a b;
        Alcotest.(check int) "two bytes" 2 (String.length a);
        Alcotest.(check bool) "successive differ" true (a.[0] <> a.[1]));
    Alcotest.test_case "report into an unmapped buffer fails cleanly"
      `Quick (fun () ->
        let _, mon = make_platform () in
        (* a0 points at an unmapped GPA: the SM must return an error and
           the guest prints 'E'. *)
        let prog =
          Guest.Gprog.fill_bytes ~gpa:0x201000L ~byte:'n' ~len:32
          @ Asm.li Asm.a0 0x3FF0000L (* never touched -> unmapped *)
          @ Asm.li Asm.a1 0x201000L
          @ Asm.li Asm.a6 Zion.Ecall.fid_guest_report
          @ Asm.li Asm.a7 Zion.Ecall.ext_zion
          @ [ Decode.Ecall ]
          @ [ Decode.Branch (Decode.Bne, Asm.a0, 0, 12L);
              Decode.Op_imm (Decode.Add, Asm.a0, 0, 82L) (* 'R' *);
              Decode.Jal (0, 8L);
              Decode.Op_imm (Decode.Add, Asm.a0, 0, 69L) (* 'E' *) ]
          @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
          @ [ Decode.Ecall ]
          @ Guest.Gprog.shutdown
        in
        let id = make_cvm mon prog in
        run_to_shutdown mon id;
        Alcotest.(check string)
          "guest saw the error" "E"
          (Zion.Monitor.console_output mon));
    Alcotest.test_case "unknown SBI extension returns Not_found" `Quick
      (fun () ->
        let _, mon = make_platform () in
        let prog =
          Asm.li Asm.a7 0x12345L
          @ [ Decode.Ecall ]
          (* a0 now holds the error code; print 'K' if negative *)
          @ [ Decode.Branch (Decode.Blt, Asm.a0, 0, 12L);
              Decode.Op_imm (Decode.Add, Asm.a0, 0, 63L) (* '?' *);
              Decode.Jal (0, 8L);
              Decode.Op_imm (Decode.Add, Asm.a0, 0, 75L) (* 'K' *) ]
          @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
          @ [ Decode.Ecall ]
          @ Guest.Gprog.shutdown
        in
        let id = make_cvm mon prog in
        run_to_shutdown mon id;
        Alcotest.(check string)
          "negative code" "K"
          (Zion.Monitor.console_output mon));
    Alcotest.test_case "wild GPA access is an error exit, not a mapping"
      `Quick (fun () ->
        let _, mon = make_platform () in
        (* touch GPA 3 GiB: beyond private and shared halves *)
        let prog =
          Asm.li Asm.t0 0xC000_0000L
          @ [ Decode.Store
                { rs1 = Asm.t0; rs2 = 0; imm = 0L; width = Decode.D } ]
          @ Guest.Gprog.shutdown
        in
        let id = make_cvm mon prog in
        match
          Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:10_000
        with
        | Ok (Zion.Monitor.Exit_error _) -> ()
        | Ok _ -> Alcotest.fail "expected an error exit"
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  ]

(* ---------- Host_mem ---------- *)

let host_mem_props =
  let base = 0x8100_0000L in
  [
    QCheck.Test.make ~name:"host_mem conserves bytes over alloc/free"
      ~count:60
      QCheck.(list_of_size Gen.(1 -- 30) (int_range 1 16))
      (fun sizes ->
        let hm = Hypervisor.Host_mem.create ~base ~size:0x100_0000L in
        let total = Hypervisor.Host_mem.total_bytes hm in
        let held =
          List.filter_map
            (fun n ->
              match Hypervisor.Host_mem.alloc_pages hm n with
              | Some b -> Some (b, n)
              | None -> None)
            sizes
        in
        let after_alloc = Hypervisor.Host_mem.free_bytes hm in
        let held_bytes =
          List.fold_left (fun acc (_, n) -> acc + (n * 4096)) 0 held
        in
        let conserved =
          Int64.add after_alloc (Int64.of_int held_bytes) = total
        in
        List.iter (fun (b, n) -> Hypervisor.Host_mem.free_pages hm b n) held;
        conserved && Hypervisor.Host_mem.free_bytes hm = total);
    QCheck.Test.make ~name:"allocations never overlap" ~count:60
      QCheck.(list_of_size Gen.(2 -- 20) (int_range 1 8))
      (fun sizes ->
        let hm = Hypervisor.Host_mem.create ~base ~size:0x40_0000L in
        let blocks =
          List.filter_map
            (fun n ->
              Option.map
                (fun b -> (b, Int64.add b (Int64.of_int (n * 4096))))
                (Hypervisor.Host_mem.alloc_pages hm n))
            sizes
        in
        let rec no_overlap = function
          | [] -> true
          | (b0, e0) :: rest ->
              List.for_all
                (fun (b1, e1) ->
                  not (Riscv.Xword.ult b0 e1 && Riscv.Xword.ult b1 e0))
                rest
              && no_overlap rest
        in
        no_overlap blocks);
    QCheck.Test.make ~name:"alignment is honoured" ~count:60
      QCheck.(int_range 0 6)
      (fun pow ->
        let hm = Hypervisor.Host_mem.create ~base ~size:0x100_0000L in
        let align = Int64.shift_left 4096L pow in
        match Hypervisor.Host_mem.alloc_pages hm ~align 3 with
        | Some b -> Int64.rem b align = 0L
        | None -> false);
  ]

(* ---------- Chart rendering ---------- *)

let chart_tests =
  [
    Alcotest.test_case "bars render and scale" `Quick (fun () ->
        let s = Metrics.Chart.bars [ ("a", 1.); ("bb", 2.) ] in
        let lines =
          List.filter (fun l -> l <> "") (String.split_on_char '\n' s)
        in
        Alcotest.(check int) "two rows" 2 (List.length lines);
        (* the longer bar belongs to bb *)
        let count_hashes l =
          String.fold_left (fun n c -> if c = '#' then n + 1 else n) 0 l
        in
        match lines with
        | [ la; lb ] ->
            Alcotest.(check bool)
              "bb longer" true
              (count_hashes lb > count_hashes la)
        | _ -> Alcotest.fail "unexpected shape");
    Alcotest.test_case "series plots all points in bounds" `Quick (fun () ->
        let s =
          Metrics.Chart.series ~x_label:"x" ~y_label:"y"
            [
              ("one", [ (0., 0.); (1., 1.); (2., 4.) ]);
              ("two", [ (0., 4.); (2., 0.) ]);
            ]
        in
        Alcotest.(check bool) "non-empty" true (String.length s > 0);
        (* glyphs present *)
        Alcotest.(check bool)
          "glyph *" true
          (String.contains s '*');
        Alcotest.(check bool) "glyph o" true (String.contains s 'o'));
    Alcotest.test_case "empty inputs yield empty strings" `Quick (fun () ->
        Alcotest.(check string) "bars" "" (Metrics.Chart.bars []);
        Alcotest.(check string)
          "series" ""
          (Metrics.Chart.series ~x_label:"x" ~y_label:"y" []));
  ]

let suite =
  [
    ("monitor.lifecycle", lifecycle_tests);
    ("monitor.regions", region_tests);
    ("monitor.guest-api", guest_api_tests);
    ("hypervisor.host_mem.properties", List.map QCheck_alcotest.to_alcotest host_mem_props);
    ("metrics.chart", chart_tests);
  ]
