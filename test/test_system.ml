(* Integration tests across the whole stack: KVM + Secure Monitor +
   assembled guests + virtio devices + SWIOTLB, for both confidential
   and normal VMs, plus the packaged attack suite. *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

let make_stack ?config ?(pool_mib = 8) () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let monitor = Zion.Monitor.create ?config machine in
  let kvm = Hypervisor.Kvm.create ~machine ~monitor () in
  (match Hypervisor.Kvm.donate_secure_pool kvm ~mib:pool_mib with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (machine, monitor, kvm)

let make_guest kvm prog =
  match
    Hypervisor.Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
      ~image:[ (guest_entry, Asm.program prog) ]
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let run_to_end kvm h =
  Hypervisor.Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:500_000
    ~max_slices:200

let check_outcome name expected got =
  let s = function
    | Hypervisor.Kvm.C_timer -> "timer"
    | Hypervisor.Kvm.C_shutdown -> "shutdown"
    | Hypervisor.Kvm.C_limit -> "limit"
    | Hypervisor.Kvm.C_denied -> "denied"
    | Hypervisor.Kvm.C_error e -> "error:" ^ e
  in
  Alcotest.(check string) name expected (s got)

let cvm_tests =
  [
    Alcotest.test_case "CVM writes the disk through SWIOTLB" `Quick
      (fun () ->
        let machine, _, kvm = make_stack () in
        let prog =
          Guest.Gprog.blk_write ~sector:5 ~len:512 ~byte:'Z'
          @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        check_outcome "outcome" "shutdown" (run_to_end kvm h);
        Alcotest.(check string)
          "status ok" "0"
          (Machine.console_output machine);
        let blk = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm) in
        Alcotest.(check string)
          "disk contents"
          (String.make 16 'Z')
          (Hypervisor.Virtio_blk.read_backing blk ~sector:5 ~len:16);
        Alcotest.(check int)
          "one request" 1
          (Hypervisor.Virtio_blk.requests_served blk));
    Alcotest.test_case "CVM reads the disk back" `Quick (fun () ->
        let machine, _, kvm = make_stack () in
        let prog =
          Guest.Gprog.blk_read_first_byte ~sector:9 ~len:512
          @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        let blk = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm) in
        Hypervisor.Virtio_blk.write_backing blk ~sector:9 (String.make 512 'Q');
        check_outcome "outcome" "shutdown" (run_to_end kvm h);
        Alcotest.(check string)
          "read byte" "Q"
          (Machine.console_output machine));
    Alcotest.test_case "CVM network echo through the peer" `Quick (fun () ->
        let machine, _, kvm = make_stack () in
        let prog =
          Guest.Gprog.net_send "PING"
          @ Guest.Gprog.net_recv_putchar
          @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        let net = Hypervisor.Mmio_emul.net (Hypervisor.Kvm.devices kvm) in
        let sent = ref [] in
        Hypervisor.Virtio_net.set_peer net (fun pkt ->
            sent := pkt :: !sent;
            if pkt = "PING" then Some "PONG" else Some "????");
        check_outcome "outcome" "shutdown" (run_to_end kvm h);
        Alcotest.(check string)
          "first reply byte" "P"
          (Machine.console_output machine);
        Alcotest.(check (list string)) "tx seen" [ "PING" ] (List.rev !sent);
        Alcotest.(check int) "tx counted" 1
          (Hypervisor.Virtio_net.tx_count net));
    Alcotest.test_case "guest obtains a verifiable attestation report"
      `Quick (fun () ->
        let machine, monitor, kvm = make_stack () in
        let prog =
          Guest.Gprog.attest_report ~nonce_byte:'n' @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        check_outcome "outcome" "shutdown" (run_to_end kvm h);
        Alcotest.(check string)
          "report ok" "R"
          (Machine.console_output machine);
        (* The measurement the SM sealed must verify in a report. *)
        let id = Hypervisor.Kvm.cvm_id h in
        let m = Option.get (Zion.Monitor.cvm_measurement monitor ~cvm:id) in
        let r =
          Zion.Attest.make_report ~cvm_id:id ~epoch:1 ~measurement:m
            ~nonce:"x"
        in
        Alcotest.(check bool) "verifies" true (Zion.Attest.verify_report r));
    Alcotest.test_case "pool exhaustion triggers expansion (stage 3)" `Quick
      (fun () ->
        (* 1 MiB pool = 4 blocks; tables take one, the image cache one;
           touching 192 pages needs 3 blocks of data: must expand. *)
        let _, monitor, kvm = make_stack ~pool_mib:1 () in
        let prog =
          Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:192
          @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        check_outcome "outcome" "shutdown" (run_to_end kvm h);
        Alcotest.(check bool)
          "expanded" true
          (Hypervisor.Kvm.expansions kvm > 0);
        let stats =
          Option.get
            (Zion.Monitor.alloc_stats monitor ~cvm:(Hypervisor.Kvm.cvm_id h))
        in
        Alcotest.(check bool)
          "stage3 fault recorded" true
          (stats.Zion.Hier_alloc.stage3 > 0);
        (* Stage-3 faults carry the calibrated 57,152-cycle cost. *)
        let stage3 =
          List.filter
            (fun (s, _) -> s = Zion.Hier_alloc.Stage3_retry)
            (Zion.Monitor.fault_log monitor)
        in
        List.iter
          (fun (_, cycles) -> Alcotest.(check int) "cycles" 57152 cycles)
          stage3);
    Alcotest.test_case "unshared-vCPU configuration also completes MMIO"
      `Quick (fun () ->
        let config =
          { Zion.Monitor.default_config with shared_vcpu = false }
        in
        let machine, _, kvm = make_stack ~config () in
        let prog =
          Guest.Gprog.blk_write ~sector:1 ~len:64 ~byte:'u'
          @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        check_outcome "outcome" "shutdown" (run_to_end kvm h);
        Alcotest.(check string)
          "status ok" "0"
          (Machine.console_output machine));
  ]

let nvm_tests =
  [
    Alcotest.test_case "normal VM runs the same console program" `Quick
      (fun () ->
        let machine, _, kvm = make_stack () in
        let nvm =
          match
            Hypervisor.Kvm.create_normal_vm kvm ~entry_pc:guest_entry
              ~image:[ (guest_entry, Asm.program (Guest.Gprog.hello "nv")) ]
          with
          | Ok v -> v
          | Error e -> Alcotest.fail e
        in
        (match
           Hypervisor.Kvm.run_normal_vm kvm nvm ~hart:0 ~max_steps:100000
         with
        | Hypervisor.Kvm.N_shutdown -> ()
        | _ -> Alcotest.fail "expected shutdown");
        Alcotest.(check string) "console" "nv" (Machine.console_output machine));
    Alcotest.test_case "normal VM stage-2 faults cost 39,607 cycles" `Quick
      (fun () ->
        let machine, _, kvm = make_stack () in
        let prog =
          Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:10
          @ Guest.Gprog.shutdown
        in
        let nvm =
          match
            Hypervisor.Kvm.create_normal_vm kvm ~entry_pc:guest_entry
              ~image:[ (guest_entry, Asm.program prog) ]
          with
          | Ok v -> v
          | Error e -> Alcotest.fail e
        in
        (match
           Hypervisor.Kvm.run_normal_vm kvm nvm ~hart:0 ~max_steps:1000000
         with
        | Hypervisor.Kvm.N_shutdown -> ()
        | _ -> Alcotest.fail "expected shutdown");
        let faults = Hypervisor.Kvm.nvm_fault_count kvm in
        Alcotest.(check bool) "faulted" true (faults >= 10);
        (* The trap charged trap_entry; the ledger holds the rest. *)
        Alcotest.(check int) "fault cost"
          (faults * (39607 - machine.Machine.cost.Cost.trap_entry))
          (Metrics.Ledger.category_total machine.Machine.ledger "kvm_fault"));
    Alcotest.test_case "normal VM does virtio I/O through its own tables"
      `Quick (fun () ->
        let machine, _, kvm = make_stack () in
        let prog =
          Guest.Gprog.blk_write ~sector:2 ~len:32 ~byte:'n'
          @ Guest.Gprog.shutdown
        in
        let nvm =
          match
            Hypervisor.Kvm.create_normal_vm kvm ~entry_pc:guest_entry
              ~image:[ (guest_entry, Asm.program prog) ]
          with
          | Ok v -> v
          | Error e -> Alcotest.fail e
        in
        (match
           Hypervisor.Kvm.run_normal_vm kvm nvm ~hart:0 ~max_steps:1000000
         with
        | Hypervisor.Kvm.N_shutdown -> ()
        | Hypervisor.Kvm.N_error e -> Alcotest.fail e
        | _ -> Alcotest.fail "expected shutdown");
        Alcotest.(check string)
          "status ok" "0"
          (Machine.console_output machine);
        let blk = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm) in
        Alcotest.(check string)
          "disk written"
          (String.make 8 'n')
          (Hypervisor.Virtio_blk.read_backing blk ~sector:2 ~len:8));
  ]

let attack_tests =
  let expect_blocked name outcome =
    match outcome with
    | Hypervisor.Attacks.Blocked _ -> ()
    | Hypervisor.Attacks.Leaked what ->
        Alcotest.fail (name ^ " leaked: " ^ what)
  in
  [
    Alcotest.test_case "attack suite: CPU and DMA access to the pool"
      `Quick (fun () ->
        let machine, _, kvm = make_stack () in
        ignore kvm;
        (* Find the pool base from the monitor's region list. *)
        let pool =
          match
            Zion.Secmem.regions (Zion.Monitor.secmem (Hypervisor.Kvm.monitor kvm))
          with
          | (base, _) :: _ -> base
          | [] -> Alcotest.fail "no pool"
        in
        expect_blocked "read"
          (Hypervisor.Attacks.read_secure_memory machine ~pool_pa:pool);
        expect_blocked "write"
          (Hypervisor.Attacks.write_secure_memory machine ~pool_pa:pool);
        Iopmp.allow_all_default (Bus.iopmp machine.Machine.bus) true;
        expect_blocked "dma"
          (Hypervisor.Attacks.dma_into_pool machine ~pool_pa:pool));
    Alcotest.test_case "attack suite: shared-vCPU tampering" `Quick
      (fun () ->
        let _, monitor, kvm = make_stack () in
        (* Stop the guest at an MMIO read so a reply is pending. *)
        let id =
          Hypervisor.Kvm.cvm_id (Hypervisor.Attacks.park_at_mmio_read kvm)
        in
        expect_blocked "register redirect"
          (Hypervisor.Attacks.tamper_mmio_reply_register monitor ~cvm:id));
    Alcotest.test_case "attack suite: bogus pc advance" `Quick (fun () ->
        let _, monitor, kvm = make_stack () in
        let id =
          Hypervisor.Kvm.cvm_id (Hypervisor.Attacks.park_at_mmio_read kvm)
        in
        expect_blocked "pc advance"
          (Hypervisor.Attacks.tamper_mmio_pc_advance monitor ~cvm:id));
    Alcotest.test_case "attack suite: vCPU state theft" `Quick (fun () ->
        let _, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        expect_blocked "steal"
          (Hypervisor.Attacks.steal_vcpu_state monitor
             ~cvm:(Hypervisor.Kvm.cvm_id h)));
    Alcotest.test_case
      "attack suite: exitful blk read into a pool page is refused" `Quick
      (fun () ->
        let machine, _, kvm = make_stack () in
        expect_blocked "blk read into the pool"
          (Hypervisor.Attacks.blk_read_into_pool kvm);
        (* The guest printed the slot's first byte after the refused
           read: it ran on past the kick to its shutdown. *)
        Alcotest.(check int)
          "guest printed" 1
          (String.length (Machine.console_output machine)));
    Alcotest.test_case
      "attack suite: exitful net RX fill into a pool page is refused" `Quick
      (fun () ->
        let machine, _, kvm = make_stack () in
        expect_blocked "net RX fill into the pool"
          (Hypervisor.Attacks.net_rx_into_pool kvm);
        Alcotest.(check string)
          "guest saw no packet" "!"
          (Machine.console_output machine));
    Alcotest.test_case
      "attack suite: an exitless ring over another CVM's page is refused"
      `Quick (fun () ->
        let _, _, kvm = make_stack () in
        expect_blocked "ring alias"
          (Hypervisor.Attacks.ring_alias_private_page kvm));
    Alcotest.test_case
      "attack suite: DMA via hostile shared mapping dies on IOPMP" `Quick
      (fun () ->
        let machine, _, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let shared = Hypervisor.Kvm.cvm_shared_map h in
        (* Hypervisor maps a secure page at a shared GPA and points the
           block device at it: the device's DMA must fault. *)
        let pool =
          match
            Zion.Secmem.regions
              (Zion.Monitor.secmem (Hypervisor.Kvm.monitor kvm))
          with
          | (base, _) :: _ -> base
          | [] -> Alcotest.fail "no pool"
        in
        Hypervisor.Shared_map.map_secure_page_for_attack shared
          ~gpa:(Guest.Swiotlb.slot_gpa 0) ~pa:pool;
        let blk = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm) in
        Hypervisor.Virtio_blk.set_translate blk (fun gpa ->
            Hypervisor.Shared_map.lookup shared ~gpa);
        Iopmp.allow_all_default (Bus.iopmp machine.Machine.bus) true;
        Alcotest.(check bool)
          "DMA faulted" true
          (match
             Bus.dma_read machine.Machine.bus ~sid:Hypervisor.Virtio_blk.sid
               pool 16
           with
          | _ -> false
          | exception Bus.Fault _ -> true));
  ]

let scheduler_tests =
  [
    Alcotest.test_case "round-robin schedules many CVMs to completion"
      `Quick (fun () ->
        let machine, _, kvm = make_stack ~pool_mib:32 () in
        let sched = Hypervisor.Sched.create kvm ~quantum:200_000 in
        let n = 6 in
        for i = 0 to n - 1 do
          let c = Char.chr (Char.code 'a' + i) in
          Hypervisor.Sched.add sched
            (make_guest kvm (Guest.Gprog.hello (String.make 1 c)))
        done;
        let outcomes = Hypervisor.Sched.run sched ~hart:0 ~max_rounds:100 in
        Alcotest.(check int) "all finished" n (List.length outcomes);
        List.iter
          (fun (_, o) -> check_outcome "each shuts down" "shutdown" o)
          outcomes;
        (* every guest printed exactly once, in some interleaving *)
        let out = Machine.console_output machine in
        Alcotest.(check int) "n chars" n (String.length out));
  ]

let suite =
  [
    ("system.cvm", cvm_tests);
    ("system.normal-vm", nvm_tests);
    ("system.attacks", attack_tests);
    ("system.scheduler", scheduler_tests);
  ]
