(* Crash consistency: the write-ahead intent journal, host-restart
   recovery (roll-forward/roll-back convergence, idempotence,
   crash-during-recovery), the idempotent reclamation primitives the
   replay leans on, the exhaustive crash-at-every-journal-point chaos
   sweep, and the jittered expansion backoff's audited ledger bounds. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

let world () =
  let machine = Machine.create ~nharts:2 ~dram_size:(mib 64) () in
  let mon = Zion.Monitor.create machine in
  let kvm = Hypervisor.Kvm.create ~machine ~monitor:mon () in
  (match Hypervisor.Kvm.donate_secure_pool kvm ~mib:2 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (machine, mon, kvm)

let check_audit mon =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error f -> Alcotest.failf "audit: %s" (String.concat "; " f)

(* ---------- journal serialization properties ---------- *)

let i64_gen =
  QCheck.Gen.(
    map2
      (fun a b ->
        Int64.logxor (Int64.of_int a) (Int64.shift_left (Int64.of_int b) 31))
      int int)

(* Session ids, reasons and steps exercise the full byte range — the
   hex encoding must round-trip '|', ':' and control characters. *)
let raw_string_gen = QCheck.Gen.(string_size ~gen:char (int_bound 24))

let op_gen =
  QCheck.Gen.(
    let open Zion.Journal in
    oneof
      [
        map3
          (fun cvm block_base nvcpus ->
            Op_create { cvm; block_base; nvcpus })
          nat i64_gen nat;
        map3 (fun cvm gpa npages -> Op_load { cvm; gpa; npages }) nat i64_gen
          nat;
        map2 (fun base size -> Op_expand { base; size }) i64_gen i64_gen;
        map3 (fun cvm gpa pa -> Op_relinquish { cvm; gpa; pa }) nat i64_gen
          i64_gen;
        map (fun cvm -> Op_destroy { cvm }) nat;
        map2 (fun cvm reason -> Op_quarantine { cvm; reason }) nat
          raw_string_gen;
        map2
          (fun session cvm -> Op_mig_out_begin { session; cvm })
          raw_string_gen nat;
        map (fun session -> Op_mig_out_abort { session }) raw_string_gen;
        map (fun session -> Op_mig_out_commit { session }) raw_string_gen;
        map3
          (fun session epoch built ->
            Op_mig_in_prepare { session; epoch; built })
          raw_string_gen nat (opt nat);
        map (fun session -> Op_mig_in_commit { session }) raw_string_gen;
        map (fun session -> Op_mig_in_abort { session }) raw_string_gen;
      ])

let record_gen =
  QCheck.Gen.(
    map3
      (fun seq op (state, step) -> { Zion.Journal.seq; op; state; step })
      nat op_gen
      (pair
         (oneofl [ Zion.Journal.Pending; Zion.Journal.Done ])
         raw_string_gen))

let journal_props =
  [
    QCheck.Test.make ~count:500
      ~name:"journal records round-trip through serialization"
      (QCheck.make record_gen) (fun r ->
        match
          Zion.Journal.record_of_string (Zion.Journal.record_to_string r)
        with
        | Ok r' -> r' = r
        | Error e -> QCheck.Test.fail_reportf "parse failed: %s" e);
    QCheck.Test.make ~count:500
      ~name:"record parser is total on arbitrary bytes" QCheck.string
      (fun s ->
        match Zion.Journal.record_of_string s with
        | Ok _ | Error _ -> true);
    QCheck.Test.make ~count:200
      ~name:"record parser is total on corrupted valid lines"
      QCheck.(pair (make record_gen) (pair small_nat char))
      (fun (r, (i, c)) ->
        let s = Bytes.of_string (Zion.Journal.record_to_string r) in
        if Bytes.length s = 0 then true
        else begin
          Bytes.set s (i mod Bytes.length s) c;
          match Zion.Journal.record_of_string (Bytes.to_string s) with
          | Ok _ | Error _ -> true
        end);
  ]

(* ---------- recovery unit tests ---------- *)

let crash_at mon k f =
  let j = Zion.Monitor.journal mon in
  Zion.Journal.set_crash_after j k;
  match f () with
  | _ ->
      Zion.Journal.disarm j;
      Alcotest.failf "crash at journal point %d did not fire" k
  | exception Zion.Journal.Crashed -> Zion.Monitor.crash_reboot mon

let unit_tests =
  [
    Alcotest.test_case "recovery is idempotent (recover twice = no-op)"
      `Quick (fun () ->
        let _, mon, _ = world () in
        crash_at mon 2 (fun () ->
            Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry);
        let r1 = Zion.Monitor.recover mon in
        Alcotest.(check int) "one pending" 1 r1.Zion.Monitor.rr_pending;
        Alcotest.(check int) "rolled back" 1 r1.Zion.Monitor.rr_rolled_back;
        check_audit mon;
        let r2 = Zion.Monitor.recover mon in
        Alcotest.(check int) "nothing pending" 0 r2.Zion.Monitor.rr_pending;
        Alcotest.(check int) "nothing replayed" 0
          (r2.Zion.Monitor.rr_rolled_forward
          + r2.Zion.Monitor.rr_rolled_back);
        check_audit mon);
    Alcotest.test_case "recover-after-recover-crash converges" `Quick
      (fun () ->
        let _, mon, _ = world () in
        (* crash create late enough that the half-built CVM is in the
           table, so the recovery replay has real scrubbing to do *)
        crash_at mon 3 (fun () ->
            Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry);
        (* ...then crash the recovery itself at its first journal point *)
        crash_at mon 1 (fun () -> Zion.Monitor.recover mon);
        let r = Zion.Monitor.recover mon in
        Alcotest.(check int) "still pending after crashed recovery" 1
          r.Zion.Monitor.rr_pending;
        check_audit mon;
        let r2 = Zion.Monitor.recover mon in
        Alcotest.(check int) "converged" 0 r2.Zion.Monitor.rr_pending;
        check_audit mon);
    Alcotest.test_case "recovery on a healthy monitor is harmless" `Quick
      (fun () ->
        let _, mon, kvm = world () in
        let h =
          match
            Hypervisor.Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
              ~image:
                [ (guest_entry, Asm.program (Guest.Gprog.hello "ok\n")) ]
          with
          | Ok h -> h
          | Error e -> Alcotest.fail e
        in
        let r = Zion.Monitor.recover mon in
        Alcotest.(check int) "nothing pending" 0 r.Zion.Monitor.rr_pending;
        check_audit mon;
        (match Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:100_000 with
        | Hypervisor.Kvm.C_shutdown -> ()
        | _ -> Alcotest.fail "guest did not run to shutdown after recover");
        check_audit mon);
    Alcotest.test_case "non-crash lifecycle journals but never recovers"
      `Quick (fun () ->
        let machine, mon, kvm = world () in
        let h =
          match
            Hypervisor.Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
              ~image:
                [ (guest_entry, Asm.program (Guest.Gprog.hello "ok\n")) ]
          with
          | Ok h -> h
          | Error e -> Alcotest.fail e
        in
        ignore (Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:100_000);
        (match
           Zion.Monitor.destroy_cvm mon ~cvm:(Hypervisor.Kvm.cvm_id h)
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        let j = Zion.Monitor.journal mon in
        Alcotest.(check bool) "journal saw the operations" true
          (Zion.Journal.writes j > 0);
        Alcotest.(check int) "no record left pending" 0
          (List.length (Zion.Journal.pending j));
        (* the zero-cost gate: journaling charges nothing, recovery was
           never entered *)
        Alcotest.(check int) "no recovery cycles on the ledger" 0
          (Metrics.Ledger.category_total machine.Machine.ledger
             "sm_recover");
        check_audit mon);
  ]

(* ---------- idempotent reclamation primitives ---------- *)

let idem_tests =
  [
    Alcotest.test_case "free/scrub/reclaim are idempotent per block"
      `Quick (fun () ->
        let _, mon, _ = world () in
        let sm = Zion.Monitor.secmem mon in
        let zeroed = ref 0 in
        let zero ~base:_ ~bytes:_ = incr zeroed in
        (match Zion.Secmem.alloc_block sm with
        | None -> Alcotest.fail "pool empty"
        | Some b ->
            let base = Zion.Secmem.block_base b in
            Alcotest.(check bool) "allocated, not free" false
              (Zion.Secmem.is_free_base sm base);
            Alcotest.(check bool) "first scrub_free frees" true
              (Zion.Hier_alloc.scrub_free ~zero sm b);
            Alcotest.(check int) "zeroed once" 1 !zeroed;
            Alcotest.(check bool) "double scrub_free is a no-op" false
              (Zion.Hier_alloc.scrub_free ~zero sm b);
            Alcotest.(check int) "no double scrub" 1 !zeroed;
            Alcotest.(check bool) "double free is a no-op" false
              (Zion.Hier_alloc.free_block sm b);
            Alcotest.(check bool) "free again" true
              (Zion.Secmem.is_free_base sm base);
            Alcotest.(check bool) "reclaim of a free base is a no-op"
              false
              (Zion.Hier_alloc.reclaim_base sm ~base));
        (match Zion.Secmem.alloc_block sm with
        | None -> Alcotest.fail "pool empty"
        | Some b2 ->
            let base2 = Zion.Secmem.block_base b2 in
            Alcotest.(check bool) "reclaim_base relinks an orphan" true
              (Zion.Hier_alloc.reclaim_base sm ~base:base2);
            Alcotest.(check bool) "orphan is free again" true
              (Zion.Secmem.is_free_base sm base2);
            Alcotest.(check bool) "reclaim twice is a no-op" false
              (Zion.Hier_alloc.reclaim_base sm ~base:base2));
        Alcotest.(check bool) "pool fully recovered" true
          (Zion.Secmem.free_blocks sm = Zion.Secmem.total_blocks sm);
        match Zion.Secmem.check_invariants sm with
        | Ok () -> ()
        | Error m -> Alcotest.fail m);
    Alcotest.test_case "reclaim_base rejects foreign and misaligned bases"
      `Quick (fun () ->
        let _, mon, _ = world () in
        let sm = Zion.Monitor.secmem mon in
        Alcotest.(check bool) "outside the pool" false
          (Zion.Hier_alloc.reclaim_base sm ~base:0x1000L);
        let base, _ = List.hd (Zion.Secmem.regions sm) in
        Alcotest.(check bool) "misaligned" false
          (Zion.Hier_alloc.reclaim_base sm ~base:(Int64.add base 4096L)));
  ]

(* ---------- the exhaustive crash sweep ---------- *)

let sweep_tests =
  [
    Alcotest.test_case
      "crash at every journal point of every op converges" `Slow (fun () ->
        let r = Platform.Chaos.sm_crash_sweep () in
        if not (Platform.Chaos.sm_survived r) then
          Alcotest.failf "sweep compromised:@\n%a"
            Platform.Chaos.pp_sm_report r;
        Alcotest.(check int) "all twenty operations swept" 20
          (List.length r.Platform.Chaos.sm_ops);
        List.iter
          (fun op ->
            Alcotest.(check bool) (op ^ " swept") true
              (List.mem_assoc op r.Platform.Chaos.sm_ops))
          [
            "chan-grant"; "chan-accept"; "chan-revoke"; "chan-degrade";
            "chan-destroy-a"; "chan-destroy-b"; "chan-quarantine";
            "chan-mig-commit";
          ];
        List.iter
          (fun (op, pts) ->
            if pts < 3 then
              Alcotest.failf "%s crash-tested only %d journal points" op
                pts)
          r.Platform.Chaos.sm_ops;
        Alcotest.(check bool) "nested recovery crashes were injected" true
          (r.Platform.Chaos.sm_crashes > r.Platform.Chaos.sm_cases / 2));
  ]

(* ---------- jittered expansion backoff ---------- *)

let deny_stack () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let monitor = Zion.Monitor.create machine in
  let kvm = Hypervisor.Kvm.create ~machine ~monitor () in
  (match Hypervisor.Kvm.donate_secure_pool kvm ~mib:1 with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let prog =
    Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:192
    @ Guest.Gprog.shutdown
  in
  let h =
    match
      Hypervisor.Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
        ~image:[ (guest_entry, Asm.program prog) ]
    with
    | Ok h -> h
    | Error e -> Alcotest.fail e
  in
  Hypervisor.Kvm.set_expand_policy kvm Hypervisor.Kvm.Expand_deny;
  (match Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:10_000_000 with
  | Hypervisor.Kvm.C_error _ -> ()
  | _ -> Alcotest.fail "expected the stalled run to give up");
  Alcotest.(check int) "retry budget still bounded" 5
    (Hypervisor.Kvm.expand_stalls kvm);
  Metrics.Ledger.category_total machine.Machine.ledger "expand_backoff"

let jitter_tests =
  [
    Alcotest.test_case "backoff jitter stays inside the audited bounds"
      `Quick (fun () ->
        let total = deny_stack () in
        (* stalls 0..4 charge base 1000 lsl n plus jitter < base/2 *)
        let base_total = 1000 * (1 + 2 + 4 + 8 + 16) in
        if total < base_total || total >= base_total * 3 / 2 then
          Alcotest.failf
            "expand_backoff total %d outside [%d, %d)" total base_total
            (base_total * 3 / 2));
    Alcotest.test_case "tenant instances desynchronise their retries"
      `Quick (fun () ->
        (* Two identical stalled worlds: the per-instance jitter seed
           must spread their ledger totals (lockstep retry is exactly
           what the jitter exists to break). *)
        let a = deny_stack () in
        let b = deny_stack () in
        Alcotest.(check bool) "different backoff schedules" true (a <> b));
  ]

let suite =
  [
    ("recovery:journal", List.map QCheck_alcotest.to_alcotest journal_props);
    ("recovery:unit", unit_tests);
    ("recovery:idempotence", idem_tests);
    ("recovery:sweep", sweep_tests);
    ("recovery:jitter", jitter_tests);
  ]
