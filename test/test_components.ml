(* Remaining component coverage: vCPU structures and MMIO decoding,
   delegation policy values, guest program builders, CLINT/UART edges,
   and the page-cache structure. *)

open Riscv

let vcpu_tests =
  [
    Alcotest.test_case "save/restore round-trips hart state" `Quick
      (fun () ->
        let m = Machine.create ~dram_size:0x100000L () in
        let h = Machine.hart m 0 in
        for i = 1 to 31 do
          Hart.set_reg h i (Int64.of_int (i * 1000))
        done;
        h.Hart.pc <- 0xBEEF0L;
        h.Hart.csr.Csr.vsatp <- 0x1234L;
        h.Hart.csr.Csr.vsscratch <- 0x77L;
        let sv = Zion.Vcpu.fresh_secure ~entry_pc:0L in
        Zion.Vcpu.save_from_hart h sv;
        (* clobber, then restore *)
        for i = 1 to 31 do
          Hart.set_reg h i 0L
        done;
        h.Hart.pc <- 0L;
        h.Hart.csr.Csr.vsatp <- 0L;
        Zion.Vcpu.restore_to_hart sv h;
        Alcotest.(check int64) "x17" 17000L (Hart.get_reg h 17);
        Alcotest.(check int64) "pc" 0xBEEF0L h.Hart.pc;
        Alcotest.(check int64) "vsatp" 0x1234L h.Hart.csr.Csr.vsatp;
        Alcotest.(check int64) "vsscratch" 0x77L h.Hart.csr.Csr.vsscratch;
        Alcotest.(check int) "generation bumped" 1 sv.Zion.Vcpu.generation);
    Alcotest.test_case "x0 stays zero across restore" `Quick (fun () ->
        let m = Machine.create ~dram_size:0x100000L () in
        let h = Machine.hart m 0 in
        let sv = Zion.Vcpu.fresh_secure ~entry_pc:0L in
        sv.Zion.Vcpu.regs.(0) <- 42L (* hostile image *);
        Zion.Vcpu.restore_to_hart sv h;
        Alcotest.(check int64) "x0" 0L (Hart.get_reg h 0));
    Alcotest.test_case "decode_mmio parses loads and stores" `Quick
      (fun () ->
        let sv = Zion.Vcpu.fresh_secure ~entry_pc:0L in
        sv.Zion.Vcpu.regs.(7) <- 0xABCDL (* t2 *);
        let store_word =
          Asm.encode
            (Decode.Store { rs1 = 5; rs2 = 7; imm = 0L; width = Decode.W })
        in
        let regs = sv.Zion.Vcpu.regs in
        (match Zion.Vcpu.decode_mmio regs ~htinst:store_word ~gpa:0x10001000L with
        | Ok m ->
            Alcotest.(check bool) "write" true m.Zion.Vcpu.mmio_write;
            Alcotest.(check int) "size" 4 m.Zion.Vcpu.mmio_size;
            Alcotest.(check int64) "data" 0xABCDL m.Zion.Vcpu.mmio_data
        | Error e -> Alcotest.fail e);
        let load_word =
          Asm.encode
            (Decode.Load
               { rd = 9; rs1 = 5; imm = 0L; width = Decode.H; unsigned = true })
        in
        (match Zion.Vcpu.decode_mmio regs ~htinst:load_word ~gpa:0x10001010L with
        | Ok m ->
            Alcotest.(check bool) "read" false m.Zion.Vcpu.mmio_write;
            Alcotest.(check int) "rd" 9 m.Zion.Vcpu.mmio_reg;
            Alcotest.(check bool) "unsigned" true m.Zion.Vcpu.mmio_unsigned
        | Error e -> Alcotest.fail e);
        (* non-memory instruction *)
        let add = Asm.encode (Decode.Op (Decode.Add, 1, 2, 3)) in
        Alcotest.(check bool)
          "rejected" true
          (Result.is_error (Zion.Vcpu.decode_mmio regs ~htinst:add ~gpa:0L)));
    Alcotest.test_case "absorb applies width-correct sign extension"
      `Quick (fun () ->
        let sv = Zion.Vcpu.fresh_secure ~entry_pc:0x1000L in
        let sh = Zion.Vcpu.fresh_shared () in
        let mmio =
          { Zion.Vcpu.mmio_write = false; mmio_gpa = 0L; mmio_size = 2;
            mmio_unsigned = false; mmio_data = 0L; mmio_reg = 5 }
        in
        sh.Zion.Vcpu.s_data <- 0xFFFFL;
        sh.Zion.Vcpu.s_reg_index <- 5;
        sh.Zion.Vcpu.s_pc_advance <- 4L;
        (match Zion.Vcpu.absorb_mmio_result sh sv mmio with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check int64) "sext16" (-1L) sv.Zion.Vcpu.regs.(5);
        Alcotest.(check int64) "pc advanced" 0x1004L sv.Zion.Vcpu.pc);
    Alcotest.test_case "absorb never writes x0" `Quick (fun () ->
        let sv = Zion.Vcpu.fresh_secure ~entry_pc:0x1000L in
        let sh = Zion.Vcpu.fresh_shared () in
        let mmio =
          { Zion.Vcpu.mmio_write = false; mmio_gpa = 0L; mmio_size = 8;
            mmio_unsigned = false; mmio_data = 0L; mmio_reg = 0 }
        in
        sh.Zion.Vcpu.s_data <- 0x4141L;
        sh.Zion.Vcpu.s_reg_index <- 0;
        sh.Zion.Vcpu.s_pc_advance <- 4L;
        (match Zion.Vcpu.absorb_mmio_result sh sv mmio with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check int64) "x0" 0L sv.Zion.Vcpu.regs.(0));
  ]

let deleg_tests =
  [
    Alcotest.test_case "CVM mode keeps guest-page faults out of medeleg"
      `Quick (fun () ->
        List.iter
          (fun cause ->
            let bit = Cause.exception_code cause in
            Alcotest.(check bool)
              (Cause.to_string (Cause.Exception cause))
              false
              (Xword.bit Zion.Deleg_policy.cvm_medeleg bit))
          [ Cause.Instr_guest_page_fault; Cause.Load_guest_page_fault;
            Cause.Store_guest_page_fault; Cause.Ecall_from_vs ]);
    Alcotest.test_case "CVM mode lets the guest keep its own faults"
      `Quick (fun () ->
        List.iter
          (fun cause ->
            let bit = Cause.exception_code cause in
            Alcotest.(check bool)
              (Cause.to_string (Cause.Exception cause))
              true
              (Xword.bit Zion.Deleg_policy.cvm_medeleg bit
              && Xword.bit Zion.Deleg_policy.cvm_hedeleg bit))
          [ Cause.Ecall_from_u; Cause.Instr_page_fault;
            Cause.Load_page_fault; Cause.Store_page_fault ]);
    Alcotest.test_case "normal mode delegates guest faults to HS" `Quick
      (fun () ->
        List.iter
          (fun cause ->
            let bit = Cause.exception_code cause in
            Alcotest.(check bool)
              (Cause.to_string (Cause.Exception cause))
              true
              (Xword.bit Zion.Deleg_policy.normal_medeleg bit
              && not (Xword.bit Zion.Deleg_policy.normal_hedeleg bit)))
          [ Cause.Instr_guest_page_fault; Cause.Load_guest_page_fault;
            Cause.Store_guest_page_fault ]);
    Alcotest.test_case "machine timer is never delegated" `Quick (fun () ->
        let bit = Cause.interrupt_code Cause.Machine_timer in
        Alcotest.(check bool)
          "cvm" false
          (Xword.bit Zion.Deleg_policy.cvm_mideleg bit);
        Alcotest.(check bool)
          "normal" false
          (Xword.bit Zion.Deleg_policy.normal_mideleg bit));
  ]

let gprog_tests =
  [
    Alcotest.test_case "builders assemble to decodable programs" `Quick
      (fun () ->
        let progs =
          [
            Guest.Gprog.hello "test";
            Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:3;
            Guest.Gprog.blk_write ~sector:0 ~len:16 ~byte:'x';
            Guest.Gprog.blk_read_first_byte ~sector:0 ~len:16;
            Guest.Gprog.net_send "ab";
            Guest.Gprog.net_recv_putchar;
            Guest.Gprog.attest_report ~nonce_byte:'n';
            Guest.Gprog.fill_bytes ~gpa:0x1000L ~byte:'z' ~len:5;
          ]
        in
        List.iter
          (fun prog ->
            List.iter
              (fun ins ->
                match Decode.decode (Asm.encode ins) with
                | Decode.Illegal w ->
                    Alcotest.fail (Printf.sprintf "illegal 0x%Lx" w)
                | _ -> ())
              prog)
          progs);
    Alcotest.test_case "empty builders yield empty programs" `Quick
      (fun () ->
        Alcotest.(check int)
          "fill 0" 0
          (List.length (Guest.Gprog.fill_bytes ~gpa:0L ~byte:'x' ~len:0));
        Alcotest.(check int)
          "touch 0" 0
          (List.length (Guest.Gprog.touch_pages ~start_gpa:0L ~pages:0)));
  ]

let device_tests =
  [
    Alcotest.test_case "clint mtimecmp gates timer_pending" `Quick
      (fun () ->
        let c = Clint.create ~nharts:2 in
        Clint.set_mtimecmp c 1 100L;
        Clint.set_mtime c 99L;
        Alcotest.(check bool) "not yet" false (Clint.timer_pending c 1);
        Clint.set_mtime c 100L;
        Alcotest.(check bool) "fires at cmp" true (Clint.timer_pending c 1);
        Alcotest.(check bool)
          "other hart unaffected" false
          (Clint.timer_pending c 0));
    Alcotest.test_case "clint MMIO map round-trips" `Quick (fun () ->
        let c = Clint.create ~nharts:2 in
        Clint.write c 0x4008L 8 777L (* mtimecmp hart 1 *);
        Alcotest.(check int64) "cmp" 777L (Clint.mtimecmp c 1);
        Clint.write c 0x0004L 4 1L (* msip hart 1 *);
        Alcotest.(check bool) "msip" true (Clint.msip c 1);
        Alcotest.(check int64) "read back" 1L (Clint.read c 0x0004L 4);
        Clint.write c 0xbff8L 8 31337L;
        Alcotest.(check int64) "mtime" 31337L (Clint.mtime c));
    Alcotest.test_case "uart collects and clears output" `Quick (fun () ->
        let u = Uart.create () in
        Uart.write u 0L 1 (Int64.of_int (Char.code 'h'));
        Uart.write u 0L 1 (Int64.of_int (Char.code 'i'));
        Alcotest.(check string) "out" "hi" (Uart.output u);
        Alcotest.(check int64)
          "LSR says ready" 0x60L (Uart.read u 5L 1);
        Uart.clear_output u;
        Alcotest.(check string) "cleared" "" (Uart.output u));
    Alcotest.test_case "bus guest-range copies translate page by page"
      `Quick (fun () ->
        let bus = Bus.create ~dram_size:0x100000L ~nharts:1 in
        Iopmp.allow_all_default (Bus.iopmp bus) true;
        (* GPA pages 0..3 land on PA pages 7, 6, 5, 4; nothing else
           translates. *)
        let translate gpa =
          let page = Int64.to_int (Int64.shift_right_logical gpa 12) in
          if gpa < 0L || page > 3 then None
          else
            Some
              (Int64.add Bus.dram_base
                 (Int64.logor
                    (Int64.of_int ((7 - page) * 4096))
                    (Int64.logand gpa 0xFFFL)))
        in
        let data = String.init 6000 (fun i -> Char.chr (1 + (i mod 253))) in
        Alcotest.(check bool)
          "write" true
          (Bus.write_gpa bus ~translate 0xF00L data);
        Alcotest.(check (option string))
          "read back" (Some data)
          (Bus.read_gpa bus ~sid:3 ~translate 0xF00L 6000);
        Alcotest.(check string)
          "second page landed on PA page 6" (String.sub data 256 4096)
          (Bus.read_bytes bus (Int64.add Bus.dram_base 0x6000L) 4096);
        Alcotest.(check (option string))
          "one page" (Some (String.sub data 0 16))
          (Bus.read_gpa bus ~translate 0xF00L 16);
        Alcotest.(check (option string))
          "a page that does not translate" None
          (Bus.read_gpa bus ~translate 0x3F00L 512);
        Alcotest.(check bool)
          "a write that leaves the map" false
          (Bus.write_gpa bus ~translate 0x3F00L (String.make 512 'x'));
        Iopmp.add_deny (Bus.iopmp bus)
          ~base:(Int64.add Bus.dram_base 0x6000L) ~size:0x1000L;
        Alcotest.(check bool)
          "a denied DMA page faults" true
          (match Bus.read_gpa bus ~sid:3 ~translate 0xF00L 6000 with
          | _ -> false
          | exception Bus.Fault _ -> true);
        Alcotest.(check (option string))
          "a CPU copy skips the IOPMP" (Some data)
          (Bus.read_gpa bus ~translate 0xF00L 6000));
    Alcotest.test_case "virtio-net keeps a packet an RX fill cannot deliver"
      `Quick (fun () ->
        let open Hypervisor in
        let bus = Bus.create ~dram_size:0x100000L ~nharts:1 in
        Iopmp.allow_all_default (Bus.iopmp bus) true;
        let net = Virtio_net.create ~bus in
        Virtio_net.set_translate net (fun gpa ->
            if gpa >= 0L && gpa < 0x100000L then
              Some (Int64.add Bus.dram_base gpa)
            else None);
        Virtio_net.set_peer net (fun _ -> Some "pong");
        let le n v =
          String.init n (fun i ->
              Char.chr
                (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
        in
        (* TX descriptor at 0x1000: len 4 | pad | data GPA 0x2000. *)
        Bus.write_bytes bus (Int64.add Bus.dram_base 0x1000L)
          (le 4 4L ^ le 4 0L ^ le 8 0x2000L);
        Bus.write_bytes bus (Int64.add Bus.dram_base 0x2000L) "ping";
        Virtio_net.mmio_write net 0x00L 8 0x1000L;
        Virtio_net.mmio_write net 0x08L 4 1L;
        Alcotest.(check int) "sent" 1 (Virtio_net.tx_count net);
        let fill gpa =
          Virtio_net.mmio_write net 0x18L 8 gpa;
          Virtio_net.mmio_write net 0x08L 4 2L;
          Virtio_net.mmio_read net 0x10L 4
        in
        Alcotest.(check int64) "unmapped buffer" 0L (fill 0x2000_0000L);
        Alcotest.(check int64) "mapped buffer" 4L (fill 0x3000L);
        Alcotest.(check string)
          "delivered" "pong"
          (Bus.read_bytes bus (Int64.add Bus.dram_base 0x3000L) 4);
        Alcotest.(check int64) "queue drained" 0L (fill 0x3000L));
    Alcotest.test_case "a kick whose descriptor the IOPMP denies fails"
      `Quick (fun () ->
        let open Hypervisor in
        let bus = Bus.create ~dram_size:0x100000L ~nharts:1 in
        Iopmp.allow_all_default (Bus.iopmp bus) true;
        Iopmp.add_deny (Bus.iopmp bus)
          ~base:(Int64.add Bus.dram_base 0x1000L) ~size:0x1000L;
        let translate gpa =
          if gpa >= 0L && gpa < 0x100000L then
            Some (Int64.add Bus.dram_base gpa)
          else None
        in
        let blk = Virtio_blk.create ~bus ~capacity_sectors:8 in
        Virtio_blk.set_translate blk translate;
        Virtio_blk.mmio_write blk 0x00L 8 0x1000L;
        Virtio_blk.mmio_write blk 0x08L 4 1L;
        Alcotest.(check int64) "blk status" 1L
          (Virtio_blk.mmio_read blk 0x10L 4);
        let net = Virtio_net.create ~bus in
        Virtio_net.set_translate net translate;
        Virtio_net.mmio_write net 0x00L 8 0x1000L;
        Virtio_net.mmio_write net 0x08L 4 1L;
        Alcotest.(check int) "nothing sent" 0 (Virtio_net.tx_count net));
    Alcotest.test_case "bus rejects overlapping device windows" `Quick
      (fun () ->
        let bus = Bus.create ~dram_size:0x100000L ~nharts:1 in
        Bus.register_device bus ~name:"d1" ~base:0x2000_0000L ~size:0x1000L
          ~read:(fun _ _ -> 0L)
          ~write:(fun _ _ _ -> ());
        Alcotest.(check bool)
          "overlap rejected" true
          (match
             Bus.register_device bus ~name:"d2" ~base:0x2000_0800L
               ~size:0x1000L
               ~read:(fun _ _ -> 0L)
               ~write:(fun _ _ _ -> ())
           with
          | () -> false
          | exception Invalid_argument _ -> true));
  ]

let page_cache_tests =
  [
    Alcotest.test_case "attach keeps history for teardown" `Quick (fun () ->
        let sm = Zion.Secmem.create () in
        ignore
          (Zion.Secmem.register_region sm
             ~base:(Int64.add Bus.dram_base 0x400_0000L)
             ~size:0x80000L);
        let pc = Zion.Page_cache.create () in
        Alcotest.(check int) "empty" 0 (Zion.Page_cache.pages_left pc);
        Alcotest.(check bool)
          "no page" true
          (Zion.Page_cache.take_page pc = None);
        let b1 = Option.get (Zion.Secmem.alloc_block sm) in
        Zion.Page_cache.attach_block pc b1;
        ignore (Zion.Page_cache.take_page pc);
        let b2 = Option.get (Zion.Secmem.alloc_block sm) in
        Zion.Page_cache.attach_block pc b2;
        Alcotest.(check int)
          "both blocks tracked" 2
          (List.length (Zion.Page_cache.blocks pc));
        Alcotest.(check int) "allocations" 1 (Zion.Page_cache.allocations pc));
  ]

let suite =
  [
    ("components.vcpu", vcpu_tests);
    ("components.deleg", deleg_tests);
    ("components.gprog", gprog_tests);
    ("components.devices", device_tests);
    ("components.page-cache", page_cache_tests);
  ]
