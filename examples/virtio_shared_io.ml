(* Virtio through the split page table: a confidential VM does disk and
   network I/O with SWIOTLB bounce buffers in the hypervisor-managed
   shared region (§IV.E), while its private memory stays unreachable.

   Run with: dune exec examples/virtio_shared_io.exe *)

let () =
  print_endline "=== ZION virtio + SWIOTLB ===";
  let tb = Platform.Testbed.create () in
  let kvm = tb.Platform.Testbed.kvm in
  let mon = tb.Platform.Testbed.monitor in

  (* The guest: write a sector, read it back, send a packet, receive the
     peer's reply, then shut down. All payloads bounce through the
     shared region — the devices never see private memory. *)
  let program =
    Guest.Gprog.print "blk write status: "
    @ Guest.Gprog.blk_write ~sector:7 ~len:512 ~byte:'@'
    @ Guest.Gprog.print "\nfirst byte read back: "
    @ Guest.Gprog.blk_read_first_byte ~sector:7 ~len:512
    @ Guest.Gprog.print "\nnet: sending PING, reply starts with: "
    @ Guest.Gprog.net_send "PING"
    @ Guest.Gprog.net_recv_putchar
    @ Guest.Gprog.print "\n"
    @ Guest.Gprog.shutdown
  in
  let handle = Platform.Testbed.cvm tb program in

  (* The host-side peer answering the guest's packets. *)
  let net = Hypervisor.Mmio_emul.net (Hypervisor.Kvm.devices kvm) in
  Hypervisor.Virtio_net.set_peer net (fun pkt ->
      Printf.printf "host peer saw %S\n" pkt;
      Some ("PONG to " ^ pkt));

  (match
     Hypervisor.Kvm.run_cvm_to_completion kvm handle ~hart:0
       ~quantum:Platform.Testbed.quantum_cycles ~max_slices:100
   with
  | Hypervisor.Kvm.C_shutdown -> ()
  | _ -> failwith "guest did not shut down");

  Printf.printf "guest console:\n%s\n" (Zion.Monitor.console_output mon);

  let blk = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm) in
  Printf.printf "disk sector 7 now holds: %S...\n"
    (Hypervisor.Virtio_blk.read_backing blk ~sector:7 ~len:8);
  Printf.printf "MMIO exits serviced by the hypervisor: %d\n"
    (Hypervisor.Kvm.mmio_exits_serviced kvm);
  Printf.printf "world switches: %d entries, every one re-validated\n"
    (List.length (Zion.Monitor.entry_cycles mon));

  (* The punchline: the same device, pointed at secure memory by a
     malicious translation, is stopped by the IOPMP. *)
  let pool =
    match Zion.Secmem.regions (Zion.Monitor.secmem mon) with
    | (base, _) :: _ -> base
    | [] -> failwith "no pool"
  in
  (match
     Riscv.Bus.dma_read tb.Platform.Testbed.machine.Riscv.Machine.bus
       ~sid:Hypervisor.Virtio_blk.sid pool 16
   with
  | _ -> print_endline "IOPMP FAILED — device read secure memory!"
  | exception Riscv.Bus.Fault _ ->
      print_endline "device DMA aimed at the secure pool: IOPMP fault (good)");

  (* ---------- exitless rings: the same I/O with no doorbells ---------- *)
  print_endline "\n=== exitless virtio ring ===";
  let tb2 = Platform.Testbed.create () in
  let kvm2 = tb2.Platform.Testbed.kvm in
  let batch = 8 in
  (* Eight block writes published with plain stores to the shared ring
     page, then one spin on the used index: the host services the whole
     batch at its next timer beat and publishes the index once. *)
  let prog2 =
    List.concat
      (List.init batch (fun seq ->
           Guest.Gprog.ring_blk_write ~seq ~sector:(100 + seq) ~len:128
             ~byte:(Char.chr (Char.code 'A' + seq))
             ~slot:(20 + seq)))
    @ Guest.Gprog.ring_wait_used ~target:batch
    @ Guest.Gprog.shutdown
  in
  let h2 = Platform.Testbed.cvm tb2 prog2 in
  (match Hypervisor.Kvm.enable_exitless_io kvm2 h2 with
  | Ok _ -> ()
  | Error e -> failwith e);
  (match
     Hypervisor.Kvm.run_cvm_to_completion kvm2 h2 ~hart:0 ~quantum:100_000
       ~max_slices:500
   with
  | Hypervisor.Kvm.C_shutdown -> ()
  | _ -> failwith "exitless guest did not shut down");
  let blk2 = Hypervisor.Mmio_emul.blk (Hypervisor.Kvm.devices kvm2) in
  Printf.printf "disk sector 100 now holds: %S...\n"
    (Hypervisor.Virtio_blk.read_backing blk2 ~sector:100 ~len:4);
  Printf.printf
    "%d requests, %d MMIO doorbells, %d used-index publishes\n" batch
    (Hypervisor.Kvm.mmio_exits_serviced kvm2)
    (match Hypervisor.Kvm.exitless_host kvm2 h2 with
    | Some host -> Hypervisor.Virtio_ring.notifications host
    | None -> 0);

  (* A Byzantine host rewrites a descriptor under the guest's feet:
     Check-after-Load strikes out and the association degrades to
     exitful kicks — the CVM itself keeps running. *)
  (match Platform.Attacks.ring_poison_desc_len kvm2 h2 with
  | Platform.Attacks.Blocked why -> Printf.printf "ring poison: %s\n" why
  | Platform.Attacks.Leaked why ->
      Printf.printf "RING POISON LEAKED: %s\n" why);
  Printf.printf "exitless still bound: %b (fallback quarantined it)\n"
    (Hypervisor.Kvm.exitless_active kvm2 h2)
