(* Hostile-host fault injection: totality of the typed error ABI,
   the quarantine state machine, scrub-on-destroy block recycling,
   bounded slow-path retry under dishonest expansion, and the chaos
   engine itself. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

(* Deterministic splitmix64, so failures replay across machines. *)
let splitmix seed =
  let r = Hypervisor.Splitmix.create seed in
  fun () -> Hypervisor.Splitmix.next_u64 r

let rint next bound = Hypervisor.Splitmix.below (next ()) bound

let make_monitor ?(pool_mib = 2) () =
  let machine = Machine.create ~nharts:2 ~dram_size:(mib 128) () in
  let mon = Zion.Monitor.create machine in
  (match
     Zion.Monitor.register_secure_region mon
       ~base:(Int64.add Bus.dram_base (mib 64))
       ~size:(mib pool_mib)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  (machine, mon)

(* ---------- totality: every fid, fuzzed tuples, never a raise ---------- *)

(* Each host-interface function is hammered with adversarial argument
   tuples. The contract under test is the paper's threat model: the SM
   may refuse anything, but it may never throw, and its invariants
   must hold after every single call. *)

let totality_tests =
  let fids mon next =
    let fuzz_id () =
      match rint next 5 with
      | 0 -> rint next 8 (* often a real id *)
      | 1 -> -rint next 3
      | 2 -> 0xdead
      | 3 -> max_int
      | _ -> rint next 1000
    in
    let fuzz_addr () =
      match rint next 5 with
      | 0 -> next ()
      | 1 -> Int64.neg (Int64.logand (next ()) 0xFFFFFFFL)
      | 2 -> Int64.add Bus.dram_base (Int64.of_int (rint next (128 * 0x100000)))
      | 3 -> Int64.logor (Int64.logand (next ()) 0xFFFFFFFFL) 1L
      | _ -> Int64.of_int (rint next 0x10000)
    in
    let fuzz_blob () =
      match rint next 3 with
      | 0 -> ""
      | 1 -> String.init (rint next 64) (fun _ -> Char.chr (rint next 256))
      | _ -> "ZMIG1" ^ String.init (rint next 256) (fun _ -> Char.chr (rint next 256))
    in
    let fuzz_session () =
      match rint next 3 with
      | 0 -> Printf.sprintf "s%d" (rint next 4) (* often a live session *)
      | 1 -> ""
      | _ -> String.init (rint next 80) (fun _ -> Char.chr (rint next 256))
    in
    [
      ( "register_secure_region",
        fun () ->
          ignore
            (Zion.Monitor.register_secure_region mon ~base:(fuzz_addr ())
               ~size:(fuzz_addr ())) );
      ( "create_cvm",
        fun () ->
          ignore
            (Zion.Monitor.create_cvm mon
               ~nvcpus:(rint next 70 - 2)
               ~entry_pc:(fuzz_addr ())) );
      ( "load_image",
        fun () ->
          ignore
            (Zion.Monitor.load_image mon ~cvm:(fuzz_id ()) ~gpa:(fuzz_addr ())
               (fuzz_blob ())) );
      ( "finalize_cvm",
        fun () -> ignore (Zion.Monitor.finalize_cvm mon ~cvm:(fuzz_id ())) );
      ( "install_shared",
        fun () ->
          ignore
            (Zion.Monitor.install_shared mon ~cvm:(fuzz_id ())
               ~table_pa:(fuzz_addr ())) );
      ( "run_vcpu",
        fun () ->
          ignore
            (Zion.Monitor.run_vcpu mon
               ~hart:(rint next 4 - 1)
               ~cvm:(fuzz_id ())
               ~vcpu:(rint next 4 - 1)
               ~max_steps:(rint next 2000 - 10)) );
      ( "get_vcpu_reg",
        fun () ->
          ignore
            (Zion.Monitor.get_vcpu_reg mon ~cvm:(fuzz_id ())
               ~vcpu:(rint next 4 - 1)
               ~reg:(rint next 40 - 2)) );
      ( "set_vcpu_reg",
        fun () ->
          ignore
            (Zion.Monitor.set_vcpu_reg mon ~cvm:(fuzz_id ())
               ~vcpu:(rint next 4 - 1)
               ~reg:(rint next 40 - 2)
               (next ())) );
      ( "migrate_out_begin",
        fun () ->
          ignore
            (Zion.Monitor.migrate_out_begin mon ~cvm:(fuzz_id ())
               ~session:(fuzz_session ())) );
      ( "migrate_in_prepare",
        fun () ->
          ignore
            (Zion.Monitor.migrate_in_prepare mon ~session:(fuzz_session ())
               ~epoch:(rint next 6 - 2) (fuzz_blob ())) );
      ( "destroy_cvm",
        fun () -> ignore (Zion.Monitor.destroy_cvm mon ~cvm:(fuzz_id ())) );
    ]
  in
  List.map
    (fun (name, seed) ->
      Alcotest.test_case
        (Printf.sprintf "%s is total under 1000 fuzzed tuples" name)
        `Quick
        (fun () ->
          let _, mon = make_monitor () in
          let next = splitmix seed in
          let call =
            List.assoc name (fids mon next)
          in
          for i = 1 to 1000 do
            (match call () with
            | () -> ()
            | exception e ->
                Alcotest.failf "%s raised on fuzzed tuple %d: %s" name i
                  (Printexc.to_string e));
            match Zion.Monitor.audit mon with
            | Ok _ -> ()
            | Error findings ->
                Alcotest.failf "audit after %s #%d: %s" name i
                  (String.concat "; " findings)
          done))
    [
      ("register_secure_region", 101);
      ("create_cvm", 102);
      ("load_image", 103);
      ("finalize_cvm", 104);
      ("install_shared", 105);
      ("run_vcpu", 106);
      ("get_vcpu_reg", 107);
      ("set_vcpu_reg", 108);
      ("migrate_out_begin", 109);
      ("migrate_in_prepare", 110);
      ("destroy_cvm", 111);
    ]

let mixed_totality_test =
  Alcotest.test_case "interleaved fuzzed fids keep the monitor auditable"
    `Quick (fun () ->
      let _, mon = make_monitor () in
      let next = splitmix 4242 in
      let calls =
        [|
          (fun () ->
            ignore
              (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry));
          (fun () ->
            ignore
              (Zion.Monitor.load_image mon ~cvm:(rint next 8) ~gpa:guest_entry
                 (String.make (rint next 64) 'x')));
          (fun () -> ignore (Zion.Monitor.finalize_cvm mon ~cvm:(rint next 8)));
          (fun () ->
            ignore
              (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:(rint next 8) ~vcpu:0
                 ~max_steps:200));
          (fun () -> ignore (Zion.Monitor.destroy_cvm mon ~cvm:(rint next 8)));
          (fun () ->
            ignore
              (Zion.Monitor.migrate_out_begin mon ~cvm:(rint next 8)
                 ~session:(Printf.sprintf "m%d" (rint next 4))));
        |]
      in
      for _ = 1 to 2000 do
        calls.(rint next (Array.length calls)) ()
      done;
      match Zion.Monitor.audit mon with
      | Ok _ -> ()
      | Error findings ->
          Alcotest.failf "audit: %s" (String.concat "; " findings))

(* ---------- quarantine state machine ---------- *)

let outcome_to_string = function
  | Hypervisor.Kvm.C_timer -> "timer"
  | Hypervisor.Kvm.C_shutdown -> "shutdown"
  | Hypervisor.Kvm.C_limit -> "limit"
  | Hypervisor.Kvm.C_denied -> "denied"
  | Hypervisor.Kvm.C_error e -> "error:" ^ e

let quarantine_tests =
  [
    Alcotest.test_case
      "tampered reply quarantines; only destroy is accepted after" `Quick
      (fun () ->
        let tb = Platform.Testbed.create ~pool_mib:2 () in
        let mon = tb.Platform.Testbed.monitor in
        let sm = Zion.Monitor.secmem mon in
        let free0 = Zion.Secmem.free_blocks sm in
        let h =
          Platform.Testbed.cvm tb
            (Platform.Exp_switch.mmio_program ~iterations:5)
        in
        let id = Hypervisor.Kvm.cvm_id h in
        (match
           Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0
             ~max_steps:1_000_000
         with
        | Ok (Zion.Monitor.Exit_mmio _) -> ()
        | _ -> Alcotest.fail "expected an MMIO exit");
        (match Zion.Monitor.shared_vcpu_of mon ~cvm:id ~vcpu:0 with
        | Some sh -> sh.Zion.Vcpu.s_pc_advance <- 8L
        | None -> Alcotest.fail "no shared vCPU");
        (match
           Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0
             ~max_steps:1_000_000
         with
        | Error Zion.Ecall.Denied -> ()
        | _ -> Alcotest.fail "tampered reply must be Denied");
        Alcotest.(check (option string))
          "state" (Some "quarantined")
          (Option.map Zion.Cvm.state_to_string
             (Zion.Monitor.cvm_state mon ~cvm:id));
        (match Zion.Monitor.quarantine_reason mon ~cvm:id with
        | Some r ->
            Alcotest.(check bool)
              "reason mentions check-after-load" true
              (String.length r > 0)
        | None -> Alcotest.fail "quarantined CVM must carry a reason");
        (* Every non-destroy call is refused with the dedicated code. *)
        Alcotest.(check bool)
          "run refused" true
          (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:100
          = Error Zion.Ecall.Quarantined);
        Alcotest.(check bool)
          "load refused" true
          (Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry "x"
          = Error Zion.Ecall.Quarantined);
        Alcotest.(check bool)
          "export refused" true
          (Zion.Monitor.migrate_out_begin mon ~cvm:id ~session:"q"
          = Error Zion.Ecall.Quarantined);
        Alcotest.(check bool)
          "get_reg refused" true
          (Zion.Monitor.get_vcpu_reg mon ~cvm:id ~vcpu:0 ~reg:0
          = Error Zion.Ecall.Quarantined);
        (* The monitor still audits clean while holding the quarantined
           CVM (its hostile shared subtree has been disowned). *)
        (match Zion.Monitor.audit mon with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "audit: %s" (String.concat "; " f));
        (* Destroy reclaims every block. *)
        (match Zion.Monitor.destroy_cvm mon ~cvm:id with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check (option string))
          "destroyed" (Some "destroyed")
          (Option.map Zion.Cvm.state_to_string
             (Zion.Monitor.cvm_state mon ~cvm:id));
        Alcotest.(check int) "all blocks reclaimed" free0
          (Zion.Secmem.free_blocks sm));
    Alcotest.test_case "double destroy reports Bad_state, not a crash" `Quick
      (fun () ->
        let _, mon = make_monitor () in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        (match Zion.Monitor.destroy_cvm mon ~cvm:id with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check bool)
          "second destroy refused" true
          (Zion.Monitor.destroy_cvm mon ~cvm:id = Error Zion.Ecall.Bad_state));
  ]

(* ---------- scrub + recycling on destroy ---------- *)

let scrub_tests =
  [
    Alcotest.test_case "destroy scrubs pages before recycling the blocks"
      `Quick (fun () ->
        let machine, mon = make_monitor ~pool_mib:2 () in
        let sm = Zion.Monitor.secmem mon in
        let marker = "SCRUB-ME-7f3a9c51" in
        let page =
          let b = Buffer.create 4096 in
          while Buffer.length b < 4096 do
            Buffer.add_string b marker
          done;
          Buffer.sub b 0 4096
        in
        let id =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        for i = 0 to 7 do
          match
            Zion.Monitor.load_image mon ~cvm:id
              ~gpa:(Int64.add guest_entry (Int64.of_int (i * 4096)))
              page
          with
          | Ok () -> ()
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        done;
        ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
        (* The marker is present in the pool while the CVM lives... *)
        let pool_bytes () =
          String.concat ""
            (List.map
               (fun (base, size) ->
                 Bus.read_bytes machine.Machine.bus base (Int64.to_int size))
               (Zion.Secmem.regions sm))
        in
        let contains s sub =
          let n = String.length s and k = String.length sub in
          let rec go i = i + k <= n && (String.sub s i k = sub || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool)
          "marker present while live" true
          (contains (pool_bytes ()) marker);
        (match Zion.Monitor.destroy_cvm mon ~cvm:id with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (* ...and gone — scrubbed — once the blocks are back on the
           free list, so a recycled block can never leak guest data. *)
        Alcotest.(check bool)
          "marker scrubbed after destroy" false
          (contains (pool_bytes ()) marker);
        Alcotest.(check int) "pool fully recovered"
          (Zion.Secmem.total_blocks sm)
          (Zion.Secmem.free_blocks sm);
        (* Reuse-after-destroy: a fresh CVM over the recycled blocks
           boots and runs to completion. *)
        let id2 =
          Result.get_ok
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        (match
           Zion.Monitor.load_image mon ~cvm:id2 ~gpa:guest_entry
             (Asm.program Guest.Gprog.shutdown)
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        ignore (Zion.Monitor.finalize_cvm mon ~cvm:id2);
        (match
           Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id2 ~vcpu:0
             ~max_steps:100_000
         with
        | Ok Zion.Monitor.Exit_shutdown -> ()
        | other ->
            Alcotest.failf "recycled-block CVM should shut down (got %s)"
              (match other with
              | Ok r -> Zion.Monitor.exit_reason_label r
              | Error e -> Zion.Ecall.error_to_string e)));
  ]

(* ---------- dishonest pool expansion ---------- *)

let expand_stack () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let monitor = Zion.Monitor.create machine in
  let kvm = Hypervisor.Kvm.create ~machine ~monitor () in
  (match Hypervisor.Kvm.donate_secure_pool kvm ~mib:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (monitor, kvm)

let expand_guest kvm =
  let prog =
    Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:192
    @ Guest.Gprog.shutdown
  in
  match
    Hypervisor.Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
      ~image:[ (guest_entry, Asm.program prog) ]
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let expand_tests =
  [
    Alcotest.test_case "denied expansion gives up after bounded retries"
      `Quick (fun () ->
        let monitor, kvm = expand_stack () in
        let h = expand_guest kvm in
        Hypervisor.Kvm.set_expand_policy kvm Hypervisor.Kvm.Expand_deny;
        (match Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:10_000_000 with
        | Hypervisor.Kvm.C_error msg ->
            Alcotest.(check bool)
              "stall message" true
              (String.length msg > 0)
        | other ->
            Alcotest.failf "expected C_error, got %s" (outcome_to_string other));
        Alcotest.(check int) "retries are bounded" 5
          (Hypervisor.Kvm.expand_stalls kvm);
        (* The SM is unharmed: invariants hold and the guest can be
           torn down normally. *)
        (match Zion.Monitor.audit monitor with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "audit: %s" (String.concat "; " f));
        match
          Zion.Monitor.destroy_cvm monitor ~cvm:(Hypervisor.Kvm.cvm_id h)
        with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
    Alcotest.test_case "delayed expansion retries with backoff, then succeeds"
      `Quick (fun () ->
        let monitor, kvm = expand_stack () in
        let h = expand_guest kvm in
        Hypervisor.Kvm.set_expand_policy kvm (Hypervisor.Kvm.Expand_delay 2);
        (match Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:10_000_000 with
        | Hypervisor.Kvm.C_shutdown -> ()
        | other ->
            Alcotest.failf "expected shutdown, got %s" (outcome_to_string other));
        Alcotest.(check int) "two stalls recorded" 2
          (Hypervisor.Kvm.expand_stalls kvm);
        Alcotest.(check bool)
          "expansion eventually happened" true
          (Hypervisor.Kvm.expansions kvm > 0);
        match Zion.Monitor.audit monitor with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "audit: %s" (String.concat "; " f));
    Alcotest.test_case "short-changed expansion cannot corrupt the monitor"
      `Quick (fun () ->
        let monitor, kvm = expand_stack () in
        let h = expand_guest kvm in
        Hypervisor.Kvm.set_expand_policy kvm Hypervisor.Kvm.Expand_short;
        (match Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:10_000_000 with
        | Hypervisor.Kvm.C_shutdown | Hypervisor.Kvm.C_error _ -> ()
        | other ->
            Alcotest.failf "expected shutdown or error, got %s"
              (outcome_to_string other));
        match Zion.Monitor.audit monitor with
        | Ok _ -> ()
        | Error f -> Alcotest.failf "audit: %s" (String.concat "; " f));
  ]

(* ---------- migration deserializer ---------- *)

let migrate_tests =
  [
    Alcotest.test_case "unseal is total on fuzzed blobs" `Quick (fun () ->
        let next = splitmix 777 in
        for _ = 1 to 500 do
          let blob =
            match rint next 3 with
            | 0 -> String.init (rint next 128) (fun _ -> Char.chr (rint next 256))
            | 1 -> ""
            | _ ->
                "ZMIG1"
                ^ String.init (64 + rint next 256) (fun _ ->
                      Char.chr (rint next 256))
          in
          match Zion.Migrate.unseal blob with
          | Ok _ | Error _ -> ()
          | exception e ->
              Alcotest.failf "unseal raised: %s" (Printexc.to_string e)
        done);
  ]

(* ---------- the chaos engine end to end ---------- *)

let engine_tests =
  [
    Alcotest.test_case "200-iteration chaos run survives (seed 7)" `Quick
      (fun () ->
        let r = Platform.Chaos.run ~seed:7 ~iters:200 () in
        if not (Platform.Chaos.survived r) then
          Alcotest.failf "chaos run compromised:@\n%a" Platform.Chaos.pp_report
            r);
    Alcotest.test_case "chaos runs are deterministic for a seed" `Quick
      (fun () ->
        let a = Platform.Chaos.run ~seed:99 ~iters:120 () in
        let b = Platform.Chaos.run ~seed:99 ~iters:120 () in
        Alcotest.(check int) "same calls" a.Platform.Chaos.calls
          b.Platform.Chaos.calls;
        Alcotest.(check int) "same oks" a.Platform.Chaos.ok_calls
          b.Platform.Chaos.ok_calls;
        Alcotest.(check int) "same quarantines" a.Platform.Chaos.quarantines
          b.Platform.Chaos.quarantines);
  ]

let suite =
  [
    ("chaos:totality", totality_tests @ [ mixed_totality_test ]);
    ("chaos:quarantine", quarantine_tests);
    ("chaos:scrub", scrub_tests);
    ("chaos:expand", expand_tests);
    ("chaos:migrate", migrate_tests);
    ("chaos:engine", engine_tests);
  ]
