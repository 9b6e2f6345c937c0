(* TLB coherence under the VMID-tagged retention fast path.

   The precise-shootdown work only matters if stale translations are
   (a) impossible to plant through the real flows and (b) caught by the
   auditor when planted by hand. These tests cover both directions:
   unit tests for the scoped flush primitives, audit tests that plant
   stale entries directly into a hart's TLB, full-system shootdown
   tests with retention enabled (destroy, migrate-out,
   crash-at-every-step sweeps, cross-CVM relinquish), and the
   switch-cost drop the fast path buys. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L
let pool_base = Int64.add Bus.dram_base (mib 128)

let make_platform ?(nharts = 2) ?(tlb_retention = false) () =
  let machine = Machine.create ~nharts ~dram_size:(mib 256) () in
  let config = { Zion.Monitor.default_config with tlb_retention } in
  let mon = Zion.Monitor.create ~config machine in
  (match
     Zion.Monitor.register_secure_region mon ~base:pool_base ~size:(mib 8)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  (machine, mon)

let make_cvm mon prog =
  let id =
    Result.get_ok (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
  in
  Result.get_ok
    (Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry (Asm.program prog))
  |> ignore;
  ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
  id

let run_to_shutdown mon id =
  match
    Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:1_000_000
  with
  | Ok Zion.Monitor.Exit_shutdown -> ()
  | Ok _ -> Alcotest.fail "expected shutdown"
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)

let check_audit_ok what mon =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error findings ->
      Alcotest.failf "%s: %s" what (String.concat "; " findings)

let check_audit_flags_tlb what mon =
  let contains hay needle =
    let n = String.length hay and k = String.length needle in
    let rec go i = i + k <= n && (String.sub hay i k = needle || go (i + 1)) in
    go 0
  in
  match Zion.Monitor.audit mon with
  | Ok _ -> Alcotest.failf "%s: audit missed the stale translation" what
  | Error findings ->
      Alcotest.(check bool)
        (what ^ ": finding names the TLB")
        true
        (List.exists (fun f -> contains f "TLB") findings)

(* Entries cached for [vmid] across every hart. *)
let count_vmid machine vmid =
  Array.fold_left
    (fun acc h ->
      Tlb.fold h.Hart.tlb
        (fun ~asid:_ ~vmid:v ~vpage:_ _ acc -> if v = vmid then acc + 1 else acc)
        acc)
    0 machine.Machine.harts

(* The PA one CVM's translation of [vpage] points at, read back out of
   a warm TLB (retention mode keeps it across the exit). *)
let cached_pa machine ~vmid ~va =
  let want = Int64.shift_right_logical va 12 in
  Array.fold_left
    (fun acc h ->
      Tlb.fold h.Hart.tlb
        (fun ~asid:_ ~vmid:v ~vpage e acc ->
          if v = vmid && vpage = want then Some e.Tlb.pa_page else acc)
        acc)
    None machine.Machine.harts

let entry pa =
  { Tlb.pa_page = pa; readable = true; writable = true; executable = false }

(* ---------- flush primitives ---------- *)

let unit_tests =
  [
    Alcotest.test_case "flush_page scopes by vmid" `Quick (fun () ->
        let t = Tlb.create () in
        Tlb.insert t ~asid:0 ~vmid:1 0x5000L (entry 0x8000_0000L);
        Tlb.insert t ~asid:0 ~vmid:2 0x5000L (entry 0x8010_0000L);
        Tlb.flush_page ~vmid:1 t 0x5000L;
        Alcotest.(check bool)
          "vmid 1 gone" true
          (Tlb.lookup t ~asid:0 ~vmid:1 0x5000L = None);
        Alcotest.(check bool)
          "vmid 2 survives" true
          (Tlb.lookup t ~asid:0 ~vmid:2 0x5000L <> None);
        (* unscoped sweep still kills every address space *)
        Tlb.flush_page t 0x5000L;
        Alcotest.(check int) "empty" 0 (Tlb.occupancy t));
    Alcotest.test_case "flush_pa drops every alias of the physical page"
      `Quick (fun () ->
        let t = Tlb.create () in
        let pa = 0x8000_1000L in
        Tlb.insert t ~asid:0 ~vmid:1 0x5000L (entry pa);
        Tlb.insert t ~asid:0 ~vmid:1 0x9000L (entry pa);
        Tlb.insert t ~asid:0 ~vmid:2 0x5000L (entry 0x8000_3000L);
        Tlb.flush_pa t pa;
        Alcotest.(check bool)
          "alias 1 gone" true
          (Tlb.lookup t ~asid:0 ~vmid:1 0x5000L = None);
        Alcotest.(check bool)
          "alias 2 gone" true
          (Tlb.lookup t ~asid:0 ~vmid:1 0x9000L = None);
        Alcotest.(check bool)
          "other PA survives" true
          (Tlb.lookup t ~asid:0 ~vmid:2 0x5000L <> None));
    Alcotest.test_case "flush_pa can scope to one vmid" `Quick (fun () ->
        let t = Tlb.create () in
        let pa = 0x8000_2000L in
        Tlb.insert t ~asid:0 ~vmid:1 0x5000L (entry pa);
        Tlb.insert t ~asid:0 ~vmid:2 0x7000L (entry pa);
        Tlb.flush_pa ~vmid:1 t pa;
        Alcotest.(check bool)
          "vmid 1 gone" true
          (Tlb.lookup t ~asid:0 ~vmid:1 0x5000L = None);
        Alcotest.(check bool)
          "vmid 2 keeps its alias" true
          (Tlb.lookup t ~asid:0 ~vmid:2 0x7000L <> None));
    Alcotest.test_case "reverse index survives eviction and replacement"
      `Quick (fun () ->
        let t = Tlb.create ~capacity:4 () in
        (* overfill: random replacement must keep the PA index exact *)
        for i = 0 to 19 do
          Tlb.insert t ~asid:0 ~vmid:1
            (Int64.of_int (0x10000 + (i * 0x1000)))
            (entry (Int64.of_int (0x8000_0000 + (i * 0x1000))))
        done;
        Alcotest.(check int) "bounded" 4 (Tlb.occupancy t);
        for i = 0 to 19 do
          Tlb.flush_pa t (Int64.of_int (0x8000_0000 + (i * 0x1000)))
        done;
        Alcotest.(check int) "all reachable via PA index" 0 (Tlb.occupancy t);
        (* replacement under the same key must retire the old PA *)
        Tlb.insert t ~asid:0 ~vmid:1 0x5000L (entry 0x8000_0000L);
        Tlb.insert t ~asid:0 ~vmid:1 0x5000L (entry 0x8000_9000L);
        Tlb.flush_pa t 0x8000_0000L;
        Alcotest.(check bool)
          "new mapping survives old-PA flush" true
          (Tlb.lookup t ~asid:0 ~vmid:1 0x5000L <> None);
        Tlb.flush_pa t 0x8000_9000L;
        Alcotest.(check bool)
          "new-PA flush kills it" true
          (Tlb.lookup t ~asid:0 ~vmid:1 0x5000L = None));
  ]

(* ---------- the auditor vs planted stale entries ---------- *)

let first_free_block mon =
  match Zion.Secmem.free_list_bases (Zion.Monitor.secmem mon) with
  | b :: _ -> b
  | [] -> Alcotest.fail "pool unexpectedly full"

(* First pool block base NOT on the free list — memory some CVM owns. *)
let first_allocated_block mon =
  let sm = Zion.Monitor.secmem mon in
  let bs = Zion.Secmem.block_size sm in
  let free = Zion.Secmem.free_list_bases sm in
  let rec go b =
    if b >= Int64.add pool_base (mib 8) then
      Alcotest.fail "no allocated block"
    else if List.mem b free then go (Int64.add b bs)
    else b
  in
  go pool_base

let audit_tests =
  [
    Alcotest.test_case "audit flags a translation into a free block" `Quick
      (fun () ->
        let machine, mon = make_platform () in
        let id = make_cvm mon (Guest.Gprog.hello "a") in
        run_to_shutdown mon id;
        check_audit_ok "baseline" mon;
        let free_pa = first_free_block mon in
        let tlb = machine.Machine.harts.(0).Hart.tlb in
        Tlb.insert tlb ~asid:0 ~vmid:id 0x77000L (entry free_pa);
        check_audit_flags_tlb "free block" mon;
        (* the precise primitive is also how you clean it up *)
        Tlb.flush_pa ~vmid:id tlb free_pa;
        check_audit_ok "after flush_pa" mon);
    Alcotest.test_case "audit flags secure memory under a dead vmid" `Quick
      (fun () ->
        let machine, mon = make_platform () in
        let id = make_cvm mon (Guest.Gprog.hello "b") in
        run_to_shutdown mon id;
        (* vmid 0 is the host: it must never cache owned pool memory *)
        let pa = first_allocated_block mon in
        let tlb = machine.Machine.harts.(1).Hart.tlb in
        Tlb.insert tlb ~asid:0 ~vmid:0 0x9000L (entry pa);
        check_audit_flags_tlb "host vmid" mon;
        Tlb.flush_vmid tlb 0;
        check_audit_ok "after flush_vmid" mon);
    Alcotest.test_case "audit flags a page its CVM no longer maps" `Quick
      (fun () ->
        (* B's private page cached under A's vmid: allocated, live vmid,
           but not in A's mapping — the subtlest arm of the check. *)
        let machine, mon = make_platform ~tlb_retention:true () in
        let data = 0x200000L in
        let prog c =
          Guest.Gprog.fill_bytes ~gpa:data ~byte:c ~len:8
          @ Guest.Gprog.shutdown
        in
        let a = make_cvm mon (prog 'A') in
        run_to_shutdown mon a;
        let b = make_cvm mon (prog 'B') in
        run_to_shutdown mon b;
        let b_pa =
          match cached_pa machine ~vmid:b ~va:data with
          | Some pa -> pa
          | None -> Alcotest.fail "retention should keep B's translation"
        in
        check_audit_ok "baseline" mon;
        let tlb = machine.Machine.harts.(0).Hart.tlb in
        Tlb.insert tlb ~asid:0 ~vmid:a 0x88000L (entry b_pa);
        check_audit_flags_tlb "foreign page" mon;
        Tlb.flush_pa ~vmid:a tlb b_pa;
        check_audit_ok "after scoped flush_pa" mon);
    Alcotest.test_case "audit flags a revoked channel ring left cached" `Quick
      (fun () ->
        (* The channel revoke path scrubs the ring page and shoots it
           out of both VMIDs; if a hart somehow kept the translation,
           the auditor must see a live vmid caching a free block. *)
        let machine, mon = make_platform () in
        let a = make_cvm mon (Guest.Gprog.hello "a") in
        let b = make_cvm mon (Guest.Gprog.hello "b") in
        let meas id =
          Option.value ~default:""
            (Zion.Monitor.cvm_measurement mon ~cvm:id)
        in
        let chan =
          match
            Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"tlb-a"
              ~expect:(meas b)
          with
          | Ok (c, _) -> c
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        in
        (match
           Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"tlb-b"
             ~expect:(meas a)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        let ring_pa =
          match Zion.Monitor.chan_info mon ~chan with
          | Some { Zion.Monitor.ci_page = Some pa; _ } -> pa
          | _ -> Alcotest.fail "established channel without ring page"
        in
        (match Zion.Monitor.chan_revoke mon ~chan ~cvm:a with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (* The real flow left nothing behind... *)
        Alcotest.(check int) "no translations survive the revoke" 0
          (count_vmid machine a + count_vmid machine b);
        check_audit_ok "after revoke" mon;
        (* ...and a hand-planted survivor is caught and cleanly killable
           with the same primitive the revoke uses. *)
        let tlb = machine.Machine.harts.(0).Hart.tlb in
        Tlb.insert tlb ~asid:0 ~vmid:b
          (Zion.Layout.chan_slot_gpa 1)
          (entry ring_pa);
        check_audit_flags_tlb "revoked ring" mon;
        Tlb.flush_pa ~vmid:b tlb ring_pa;
        check_audit_ok "after flush_pa" mon);
  ]

(* ---------- full-system shootdowns under retention ---------- *)

(* Park a guest mid-spin with a short timer quantum so the CVM is
   suspendable (migration requires a parked, not finished, guest). *)
let park_spinning mon machine id =
  let prog_runs_on_hart = 0 in
  let hart = Machine.hart machine prog_runs_on_hart in
  hart.Hart.csr.Csr.mie <- Int64.shift_left 1L 7;
  Clint.set_mtimecmp
    (Bus.clint machine.Machine.bus)
    prog_runs_on_hart
    (Int64.of_int (Metrics.Ledger.now machine.Machine.ledger + 50_000));
  match
    Zion.Monitor.run_vcpu mon ~hart:prog_runs_on_hart ~cvm:id ~vcpu:0
      ~max_steps:10_000_000
  with
  | Ok Zion.Monitor.Exit_timer -> ()
  | Ok _ -> Alcotest.fail "expected a timer exit"
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)

let spin_prog =
  Guest.Gprog.fill_bytes ~gpa:0x200000L ~byte:'S' ~len:8
  @ Asm.li Asm.t0 200_000L
  @ [
      Decode.Op_imm (Decode.Add, Asm.t0, Asm.t0, -1L);
      Decode.Branch (Decode.Bne, Asm.t0, 0, -4L);
    ]
  @ Guest.Gprog.shutdown

let shootdown_tests =
  [
    Alcotest.test_case "destroy leaves no translation on any hart" `Quick
      (fun () ->
        let machine, mon = make_platform ~tlb_retention:true () in
        let id = make_cvm mon (Guest.Gprog.hello "d") in
        run_to_shutdown mon id;
        Alcotest.(check bool)
          "retention kept entries warm" true
          (count_vmid machine id > 0);
        (match Zion.Monitor.destroy_cvm mon ~cvm:id with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check int) "all harts clean" 0 (count_vmid machine id);
        check_audit_ok "after destroy" mon);
    Alcotest.test_case "migrate-out commit shoots down the source" `Quick
      (fun () ->
        let machine, mon = make_platform ~tlb_retention:true () in
        let id = make_cvm mon spin_prog in
        park_spinning mon machine id;
        Alcotest.(check bool)
          "warm before handoff" true
          (count_vmid machine id > 0);
        (match Zion.Monitor.migrate_out_begin mon ~cvm:id ~session:"s1" with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (match Zion.Monitor.migrate_out_commit mon ~session:"s1" with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check int)
          "no translation outlives the handoff" 0 (count_vmid machine id);
        check_audit_ok "after commit" mon);
    Alcotest.test_case "crash at every step of destroy/migrate audits clean"
      `Quick (fun () ->
        (* Re-run the flow from scratch, stopping after each host-side
           step, as if the host crashed there; the platform must audit
           clean (and show no stale entries relative to the CVM's
           state) at every stop. *)
        let steps = 4 in
        for stop = 1 to steps do
          let machine, mon = make_platform ~tlb_retention:true () in
          let id = make_cvm mon spin_prog in
          let program = [
            (fun () -> park_spinning mon machine id);
            (fun () ->
              match
                Zion.Monitor.migrate_out_begin mon ~cvm:id ~session:"sw"
              with
              | Ok _ -> ()
              | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
            (fun () ->
              match Zion.Monitor.migrate_out_commit mon ~session:"sw" with
              | Ok () -> ()
              | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
            (fun () ->
              Alcotest.(check int)
                "post-commit TLBs clean" 0 (count_vmid machine id));
          ] in
          List.iteri (fun i step -> if i < stop then step ()) program;
          check_audit_ok (Printf.sprintf "stop after step %d" stop) mon
        done;
        (* same sweep for plain destroy *)
        for stop = 1 to 3 do
          let machine, mon = make_platform ~tlb_retention:true () in
          let id = make_cvm mon (Guest.Gprog.hello "c") in
          let program = [
            (fun () -> run_to_shutdown mon id);
            (fun () -> ignore (Zion.Monitor.destroy_cvm mon ~cvm:id));
            (fun () ->
              Alcotest.(check int)
                "post-destroy TLBs clean" 0 (count_vmid machine id));
          ] in
          List.iteri (fun i step -> if i < stop then step ()) program;
          check_audit_ok (Printf.sprintf "destroy stop %d" stop) mon
        done);
    Alcotest.test_case
      "relinquish only shoots down the relinquisher's translation" `Quick
      (fun () ->
        (* Two CVMs populate the same guest page index. B relinquishes
           its page; A's translation of the same vpage must survive —
           the old vpage-keyed flush killed both. *)
        let machine, mon = make_platform ~nharts:1 ~tlb_retention:true () in
        let data = 0x200000L in
        let a =
          make_cvm mon
            (Guest.Gprog.fill_bytes ~gpa:data ~byte:'A' ~len:8
            @ Guest.Gprog.shutdown)
        in
        run_to_shutdown mon a;
        let b =
          make_cvm mon
            (Guest.Gprog.fill_bytes ~gpa:data ~byte:'B' ~len:8
            @ Asm.li Asm.a0 data
            @ Asm.li Asm.a6 Zion.Ecall.fid_guest_relinquish
            @ Asm.li Asm.a7 Zion.Ecall.ext_zion
            @ [ Decode.Ecall ]
            @ Guest.Gprog.shutdown)
        in
        run_to_shutdown mon b;
        Alcotest.(check bool)
          "A's translation survives B's relinquish" true
          (cached_pa machine ~vmid:a ~va:data <> None);
        Alcotest.(check bool)
          "B's translation is gone" true
          (cached_pa machine ~vmid:b ~va:data = None);
        check_audit_ok "after cross-CVM relinquish" mon);
    Alcotest.test_case "chaos fuzzing with retention stays coherent" `Slow
      (fun () ->
        let report =
          Platform.Chaos.run ~tlb_retention:true ~seed:11 ~iters:150 ()
        in
        if not (Platform.Chaos.survived report) then
          Alcotest.failf "chaos run failed: %a" Platform.Chaos.pp_report
            report);
  ]

(* ---------- what the fast path costs and saves ---------- *)

let retention_cost_tests =
  [
    Alcotest.test_case "retention saves one full flush per direction" `Quick
      (fun () ->
        let faithful =
          Platform.Exp_switch.measure_timer_switches
            ~config:{ Zion.Monitor.default_config with tlb_retention = false }
            ~iterations:20
        and retained =
          Platform.Exp_switch.measure_timer_switches
            ~config:{ Zion.Monitor.default_config with tlb_retention = true }
            ~iterations:20
        in
        let flush = float_of_int Riscv.Cost.default.Riscv.Cost.tlb_full_flush in
        let close what a b =
          Alcotest.(check bool)
            (Printf.sprintf "%s (%.0f vs %.0f)" what a b)
            true
            (Float.abs (a -. b) < 0.5)
        in
        close "entry drop = tlb_full_flush"
          (faithful.Platform.Exp_switch.sw.Platform.Exp_switch.entry_mean
          -. retained.Platform.Exp_switch.sw.Platform.Exp_switch.entry_mean)
          flush;
        close "exit drop = tlb_full_flush"
          (faithful.Platform.Exp_switch.sw.Platform.Exp_switch.exit_mean
          -. retained.Platform.Exp_switch.sw.Platform.Exp_switch.exit_mean)
          flush;
        Alcotest.(check int)
          "retained mode never flushes" 0
          retained.Platform.Exp_switch.tlb.Platform.Exp_switch.tlb_flushes;
        Alcotest.(check bool)
          "retained mode runs hot" true
          (retained.Platform.Exp_switch.tlb.Platform.Exp_switch.tlb_hit_rate
          > 0.9));
    Alcotest.test_case "region setup is charged per hart" `Quick (fun () ->
        let nharts = 4 in
        let machine = Machine.create ~nharts ~dram_size:(mib 256) () in
        let mon = Zion.Monitor.create machine in
        Metrics.Trace.enable (Zion.Monitor.trace mon);
        (match
           Zion.Monitor.register_secure_region mon ~base:pool_base
             ~size:(mib 8)
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        let c = Riscv.Cost.default in
        (* every hart reprograms PMP + takes the paper-mandated full
           flush; one more toggle for the IOPMP *)
        let want =
          (nharts * c.Riscv.Cost.pmp_toggle)
          + c.Riscv.Cost.pmp_toggle
          + (nharts * c.Riscv.Cost.tlb_full_flush)
        in
        Alcotest.(check int)
          "ledger charges every hart" want
          (Metrics.Ledger.category_total machine.Machine.ledger
             "sm_region_setup");
        Alcotest.(check int)
          "flush counter agrees" nharts
          (Metrics.Registry.counter
             (Zion.Monitor.registry mon)
             "tlb.full_flush"));
    Alcotest.test_case "PMP epoch cache skips redundant reprogramming" `Quick
      (fun () ->
        let machine, mon = make_platform ~tlb_retention:true () in
        let id = make_cvm mon (Guest.Gprog.hello "e") in
        run_to_shutdown mon id;
        let get k = List.assoc k (Zion.Monitor.pmp_counters mon) in
        Alcotest.(check bool)
          "some world toggles happened" true
          (get "pmp.world_toggles" > 0);
        (* Every hart holds entries at the live region epoch, closed
           again by the exit, so recovering a monitor that never crashed
           finds no hart to reprogram: each sync is a skip and the
           recovery charges no per-hart PMP write. *)
        let nharts = Array.length machine.Machine.harts in
        let skips = get "pmp.sync_skips" in
        let ledger = machine.Machine.ledger in
        let charged = Metrics.Ledger.category_total ledger "sm_recover" in
        let r = Zion.Monitor.recover mon in
        Alcotest.(check int)
          "no hart reprogrammed" 0 r.Zion.Monitor.rr_pmp_synced;
        Alcotest.(check int)
          "one skip per hart" (skips + nharts) (get "pmp.sync_skips");
        let c = machine.Machine.cost in
        Alcotest.(check int)
          "no per-hart pmp_toggle"
          (c.Cost.pmp_toggle + (nharts * c.Cost.tlb_full_flush))
          (Metrics.Ledger.category_total ledger "sm_recover" - charged));
  ]

let suite =
  [
    ("tlb.unit", unit_tests);
    ("tlb.audit", audit_tests);
    ("tlb.shootdown", shootdown_tests);
    ("tlb.retention", retention_cost_tests);
  ]
