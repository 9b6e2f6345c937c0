(* CVM migration (blob format, session handoff) and guest page
   relinquish. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

let make_platform () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let mon = Zion.Monitor.create machine in
  (match
     Zion.Monitor.register_secure_region mon
       ~base:(Int64.add Bus.dram_base (mib 128))
       ~size:(mib 8)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  (machine, mon)

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

(* ---------- Migrate blob format ---------- *)

let sample_image () =
  {
    Zion.Migrate.im_vcpus =
      [
        {
          Zion.Migrate.vi_regs = Array.init 32 Int64.of_int;
          vi_pc = 0xCAFEL;
          vi_csrs = Array.init 8 (fun i -> Int64.of_int (100 + i));
        };
      ];
    im_measurement = String.make 32 'm';
    im_pages =
      [ (0x10000L, String.make 4096 'a'); (0x11000L, String.make 4096 'b') ];
  }

let nonce = "format-test"

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)

let format_tests =
  [
    Alcotest.test_case "seal/unseal round-trips" `Quick (fun () ->
        let im = sample_image () in
        match Zion.Migrate.unseal (Zion.Migrate.seal ~nonce im) with
        | Error e -> Alcotest.fail e
        | Ok im' ->
            Alcotest.(check int)
              "vcpus" 1
              (List.length im'.Zion.Migrate.im_vcpus);
            Alcotest.(check string)
              "measurement" im.Zion.Migrate.im_measurement
              im'.Zion.Migrate.im_measurement;
            Alcotest.(check int)
              "pages" 2
              (List.length im'.Zion.Migrate.im_pages);
            let v = List.hd im'.Zion.Migrate.im_vcpus in
            Alcotest.(check int64) "pc" 0xCAFEL v.Zion.Migrate.vi_pc;
            Alcotest.(check int64) "reg 31" 31L v.Zion.Migrate.vi_regs.(31));
    Alcotest.test_case "blob is opaque (no plaintext leaks)" `Quick
      (fun () ->
        let im = sample_image () in
        let blob = Zion.Migrate.seal ~nonce im in
        (* the page fill bytes must not appear in the blob *)
        let contains_run c n =
          let run = String.make n c in
          let ln = String.length blob and lr = String.length run in
          let rec go i =
            i + lr <= ln && (String.sub blob i lr = run || go (i + 1))
          in
          go 0
        in
        Alcotest.(check bool) "no 64-byte 'a' run" false (contains_run 'a' 64));
    Alcotest.test_case "any single-byte flip is rejected" `Quick (fun () ->
        let blob = Zion.Migrate.seal ~nonce (sample_image ()) in
        (* flip a byte in the middle of the ciphertext and at the tag *)
        List.iter
          (fun pos ->
            let b = Bytes.of_string blob in
            Bytes.set b pos
              (Char.chr (Char.code (Bytes.get b pos) lxor 0x40));
            Alcotest.(check bool)
              (Printf.sprintf "flip at %d" pos)
              true
              (Result.is_error (Zion.Migrate.unseal (Bytes.to_string b))))
          [ 30; String.length blob / 2; String.length blob - 1 ]);
    Alcotest.test_case "a rewritten payload length is rejected" `Quick
      (fun () ->
        (* Bytes 5..8 hold the payload length. The sample payload leaves
           8 bytes of cipher padding, so a length raised by up to 8
           still parses unless the tag covers the field. *)
        let blob =
          Bytes.of_string (Zion.Migrate.seal ~nonce (sample_image ()))
        in
        let len = Int32.to_int (Bytes.get_int32_le blob 5) in
        Alcotest.(check int) "padding to grow into" 8 (16 - (len mod 16));
        List.iter
          (fun delta ->
            let b = Bytes.copy blob in
            Bytes.set_int32_le b 5 (Int32.of_int (len + delta));
            Alcotest.(check bool)
              (Printf.sprintf "length %+d" delta)
              true
              (Result.is_error (Zion.Migrate.unseal (Bytes.to_string b))))
          [ 1; 8; -1 ]);
    Alcotest.test_case "truncation is rejected" `Quick (fun () ->
        let blob = Zion.Migrate.seal ~nonce (sample_image ()) in
        Alcotest.(check bool)
          "short" true
          (Result.is_error
             (Zion.Migrate.unseal (String.sub blob 0 (String.length blob / 2)))));
    Alcotest.test_case "repeated exports are unlinkable" `Quick (fun () ->
        (* Two sessions of an unchanged CVM must not yield byte-identical
           blobs: a deterministic export would let the host correlate
           snapshots. The monitor draws each session's nonce from its
           DRBG. Pinning the nonce restores determinism (a session's
           recovery re-begin relies on that). *)
        let _, mon = make_platform () in
        let id = make_cvm mon (Guest.Gprog.hello "x") in
        let b1, _ =
          ok (Zion.Monitor.migrate_out_begin mon ~cvm:id ~session:"first")
        in
        ok (Zion.Monitor.migrate_out_abort mon ~session:"first");
        let b2, _ =
          ok (Zion.Monitor.migrate_out_begin mon ~cvm:id ~session:"second")
        in
        Alcotest.(check bool) "fresh nonces differ" false (String.equal b1 b2);
        Alcotest.(check bool)
          "both verify" true
          (Result.is_ok (Zion.Migrate.unseal b1)
          && Result.is_ok (Zion.Migrate.unseal b2));
        let im = sample_image () in
        let p1 = Zion.Migrate.seal ~nonce:"pin" im
        and p2 = Zion.Migrate.seal ~nonce:"pin" im in
        Alcotest.(check bool) "pinned nonce is stable" true (String.equal p1 p2));
  ]

(* ---------- end-to-end migration ---------- *)

let migration_tests =
  [
    Alcotest.test_case "CVM migrates across platforms mid-run" `Quick
      (fun () ->
        (* Guest: print 'S', spin long enough to guarantee a timer exit,
           print 'D', shut down. *)
        let prog =
          Guest.Gprog.print "S"
          @ Asm.li Asm.t0 200_000L
          @ [
              Decode.Op_imm (Decode.Add, Asm.t0, Asm.t0, -1L);
              Decode.Branch (Decode.Bne, Asm.t0, 0, -4L);
            ]
          @ Guest.Gprog.print "D"
          @ Guest.Gprog.shutdown
        in
        let machine_a, mon_a = make_platform () in
        let id_a = make_cvm mon_a prog in
        (* one short quantum: the guest parks mid-loop *)
        let hart = Machine.hart machine_a 0 in
        hart.Hart.csr.Csr.mie <- Int64.shift_left 1L 7;
        Clint.set_mtimecmp
          (Bus.clint machine_a.Machine.bus)
          0
          (Int64.of_int (Metrics.Ledger.now machine_a.Machine.ledger + 50_000));
        (match
           Zion.Monitor.run_vcpu mon_a ~hart:0 ~cvm:id_a ~vcpu:0
             ~max_steps:10_000_000
         with
        | Ok Zion.Monitor.Exit_timer -> ()
        | Ok _ -> Alcotest.fail "expected a timer exit"
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check string)
          "source printed only S" "S"
          (Zion.Monitor.console_output mon_a);
        (* hand off through the session protocol: the commit point
           scrubs the source *)
        let m_src = Zion.Monitor.cvm_measurement mon_a ~cvm:id_a in
        let _, mon_b = make_platform () in
        let id_b =
          match
            Hypervisor.Migrator.run ~src:mon_a ~dst:mon_b ~cvm:id_a
              ~session:"mid-run" ()
          with
          | Ok (Hypervisor.Migrator.Committed id, _) -> id
          | Ok (Hypervisor.Migrator.Aborted r, _) -> Alcotest.fail r
          | Error e -> Alcotest.fail e
        in
        Alcotest.(check bool)
          "source destroyed" true
          (Zion.Monitor.cvm_state mon_a ~cvm:id_a = Some Zion.Cvm.Destroyed);
        Alcotest.(check bool)
          "measurement travelled" true
          (Zion.Monitor.cvm_measurement mon_b ~cvm:id_b = m_src);
        (* resume on the destination and finish *)
        (match
           Zion.Monitor.run_vcpu mon_b ~hart:0 ~cvm:id_b ~vcpu:0
             ~max_steps:10_000_000
         with
        | Ok Zion.Monitor.Exit_shutdown -> ()
        | Ok _ -> Alcotest.fail "expected shutdown on the destination"
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check string)
          "destination printed only D" "D"
          (Zion.Monitor.console_output mon_b));
    Alcotest.test_case "tampered blob is refused by import" `Quick
      (fun () ->
        let _, mon_a = make_platform () in
        let id = make_cvm mon_a (Guest.Gprog.hello "x") in
        let blob, epoch =
          ok (Zion.Monitor.migrate_out_begin mon_a ~cvm:id ~session:"t")
        in
        let b = Bytes.of_string blob in
        Bytes.set b (Bytes.length b - 5)
          (Char.chr (Char.code (Bytes.get b (Bytes.length b - 5)) lxor 1));
        let _, mon_b = make_platform () in
        Alcotest.(check bool)
          "denied" true
          (Zion.Monitor.migrate_in_prepare mon_b ~session:"t" ~epoch
             (Bytes.to_string b)
          = Error Zion.Ecall.Denied));
    Alcotest.test_case "export of a running CVM is refused" `Quick
      (fun () ->
        let _, mon = make_platform () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        (* Created (not finalized): refuse *)
        Alcotest.(check bool)
          "bad state" true
          (Zion.Monitor.migrate_out_begin mon ~cvm:id ~session:"r"
          = Error Zion.Ecall.Bad_state));
  ]

(* ---------- guest relinquish ---------- *)

let relinquish_tests =
  [
    Alcotest.test_case "guest returns a page; SM scrubs and reuses it"
      `Quick (fun () ->
        let machine, mon = make_platform () in
        (* Guest: write secret to a page, relinquish it, print the SBI
           status, then touch the same GPA again (re-faults onto a
           scrubbed page) and print its first byte (must be 0). *)
        let data_gpa = 0x300000L in
        let prog =
          Guest.Gprog.fill_bytes ~gpa:data_gpa ~byte:'s' ~len:64
          @ Asm.li Asm.a0 data_gpa
          @ Asm.li Asm.a6 Zion.Ecall.fid_guest_relinquish
          @ Asm.li Asm.a7 Zion.Ecall.ext_zion
          @ [ Decode.Ecall ]
          (* print '0' + a0 (0 on success) *)
          @ [ Decode.Op_imm (Decode.Add, Asm.t2, Asm.a0, 0L) ]
          @ Asm.li Asm.a0 48L
          @ [ Decode.Op (Decode.Add, Asm.a0, Asm.a0, Asm.t2) ]
          @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
          @ [ Decode.Ecall ]
          (* reload the page: must be zeros now *)
          @ Asm.li Asm.t0 data_gpa
          @ [
              Decode.Load
                { rd = Asm.a0; rs1 = Asm.t0; imm = 0L; width = Decode.B;
                  unsigned = true };
              Decode.Op_imm (Decode.Add, Asm.a0, Asm.a0, 48L);
            ]
          @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
          @ [ Decode.Ecall ]
          @ Guest.Gprog.shutdown
        in
        let id = make_cvm mon prog in
        (match
           Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0
             ~max_steps:1_000_000
         with
        | Ok Zion.Monitor.Exit_shutdown -> ()
        | Ok _ -> Alcotest.fail "expected shutdown"
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (* '0' = relinquish succeeded; '0' = page came back zeroed *)
        Alcotest.(check string)
          "status + scrubbed byte" "00"
          (Machine.console_output machine);
        (* the re-fault was served from the freed list: a stage-1-class
           allocation *)
        let stats = Option.get (Zion.Monitor.alloc_stats mon ~cvm:id) in
        Alcotest.(check bool)
          "stage1 allocations" true
          (stats.Zion.Hier_alloc.stage1 > 0));
    Alcotest.test_case "relinquishing an unmapped page fails" `Quick
      (fun () ->
        let machine, mon = make_platform () in
        let prog =
          Asm.li Asm.a0 0x3F00000L
          @ Asm.li Asm.a6 Zion.Ecall.fid_guest_relinquish
          @ Asm.li Asm.a7 Zion.Ecall.ext_zion
          @ [ Decode.Ecall ]
          @ [ Decode.Branch (Decode.Blt, Asm.a0, 0, 12L);
              Decode.Op_imm (Decode.Add, Asm.a0, 0, 63L) (* '?' *);
              Decode.Jal (0, 8L);
              Decode.Op_imm (Decode.Add, Asm.a0, 0, 78L) (* 'N' *) ]
          @ Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar
          @ [ Decode.Ecall ]
          @ Guest.Gprog.shutdown
        in
        let id = make_cvm mon prog in
        (match
           Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0
             ~max_steps:1_000_000
         with
        | Ok Zion.Monitor.Exit_shutdown -> ()
        | Ok _ -> Alcotest.fail "expected shutdown"
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check string)
          "negative status" "N"
          (Machine.console_output machine));
  ]

let suite =
  [
    ("migrate.format", format_tests);
    ("migrate.end-to-end", migration_tests);
    ("migrate.relinquish", relinquish_tests);
  ]
