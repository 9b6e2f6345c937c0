(* Remaining odds and ends: chart variants, bus decode helpers, the
   layout helpers and disassembler output. *)

open Riscv

let chart_tests =
  [
    Alcotest.test_case "grouped bars render one bar per group" `Quick
      (fun () ->
        let s =
          Metrics.Chart.grouped_bars ~group_labels:[ "normal"; "CVM" ]
            [ ("GET", [ 10.; 9.5 ]); ("SET", [ 8.; 7.6 ]) ]
        in
        let hash_lines =
          List.filter
            (fun l -> String.contains l '#')
            (String.split_on_char '\n' s)
        in
        Alcotest.(check int) "four bars" 4 (List.length hash_lines));
  ]

let bus_tests =
  [
    Alcotest.test_case "is_mmio distinguishes devices from DRAM" `Quick
      (fun () ->
        let bus = Bus.create ~dram_size:0x100000L ~nharts:1 in
        Alcotest.(check bool) "dram" false (Bus.is_mmio bus Bus.dram_base);
        Alcotest.(check bool) "clint" true (Bus.is_mmio bus Bus.clint_base);
        Alcotest.(check bool) "uart" true (Bus.is_mmio bus Bus.uart_base);
        Bus.register_device bus ~name:"x" ~base:0x3000_0000L ~size:0x100L
          ~read:(fun _ _ -> 7L)
          ~write:(fun _ _ _ -> ());
        Alcotest.(check bool) "custom" true (Bus.is_mmio bus 0x3000_0040L);
        Alcotest.(check int64) "routed read" 7L (Bus.read bus 0x3000_0040L 4));
    Alcotest.test_case "bulk transfers stay inside DRAM" `Quick (fun () ->
        let bus = Bus.create ~dram_size:0x1000L ~nharts:1 in
        Alcotest.(check bool)
          "overrun faults" true
          (match Bus.read_bytes bus (Int64.add Bus.dram_base 0xFF0L) 32 with
          | _ -> false
          | exception Bus.Fault _ -> true));
  ]

let disasm_tests =
  [
    Alcotest.test_case "well-known encodings disassemble readably" `Quick
      (fun () ->
        List.iter
          (fun (word, expect) ->
            Alcotest.(check string)
              (Printf.sprintf "0x%Lx" word)
              expect (Disasm.of_word word))
          [
            (0x00000073L, "ecall");
            (0x30200073L, "mret");
            (0x10500073L, "wfi");
            (0x00c58533L, "add a0, a1, a2");
            (0x0055b513L, "sltiu a0, a1, 5");
            (0xFFFFFFFFL, ".word 0xffffffff");
          ]);
    Alcotest.test_case "register names follow the ABI" `Quick (fun () ->
        Alcotest.(check string) "x0" "zero" (Disasm.reg_name 0);
        Alcotest.(check string) "x2" "sp" (Disasm.reg_name 2);
        Alcotest.(check string) "x10" "a0" (Disasm.reg_name 10);
        Alcotest.(check string) "x31" "t6" (Disasm.reg_name 31);
        Alcotest.(check string) "out of range" "x99" (Disasm.reg_name 99));
  ]

let layout_tests =
  [
    Alcotest.test_case "GPA space split is exact" `Quick (fun () ->
        Alcotest.(check bool)
          "last private" true
          (Zion.Layout.is_private_gpa
             (Int64.sub Zion.Layout.shared_gpa_base 1L));
        Alcotest.(check bool)
          "first shared" true
          (Zion.Layout.is_shared_gpa Zion.Layout.shared_gpa_base);
        Alcotest.(check bool)
          "beyond both" false
          (Zion.Layout.is_shared_gpa
             (Int64.add Zion.Layout.shared_gpa_base
                Zion.Layout.shared_gpa_size));
        Alcotest.(check int) "root slot" 1 Zion.Layout.shared_root_index);
    Alcotest.test_case "pages_per_block validates input" `Quick (fun () ->
        Alcotest.(check int) "256 KiB" 64 (Zion.Layout.pages_per_block 0x40000L);
        Alcotest.(check bool)
          "unaligned rejected" true
          (match Zion.Layout.pages_per_block 1000L with
          | _ -> false
          | exception Invalid_argument _ -> true));
  ]

let suite =
  [
    ("odds.chart", chart_tests);
    ("odds.bus", bus_tests);
    ("odds.disasm", disasm_tests);
    ("odds.layout", layout_tests);
  ]
