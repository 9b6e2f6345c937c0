(* Attack surface tour: every malicious-hypervisor move from the threat
   model (§III.B), attempted for real against the architecture, and the
   defence that stops each one.

   Run with: dune exec examples/attack_surface.exe
   Exits 1 if any attack leaks. *)

let leaked = ref false

let describe name outcome =
  match outcome with
  | Hypervisor.Attacks.Blocked how -> Printf.printf "  BLOCKED  %-38s %s\n" name how
  | Hypervisor.Attacks.Leaked what ->
      leaked := true;
      Printf.printf "  LEAKED!  %-38s %s\n" name what

let () =
  print_endline "=== ZION attack surface ===";
  let tb = Platform.Testbed.create () in
  let machine = tb.Platform.Testbed.machine in
  let mon = tb.Platform.Testbed.monitor in
  let pool =
    match Zion.Secmem.regions (Zion.Monitor.secmem mon) with
    | (base, _) :: _ -> base
    | [] -> failwith "no pool"
  in

  print_endline "hypervisor attacks on secure memory:";
  describe "HS-mode load from the pool"
    (Hypervisor.Attacks.read_secure_memory machine ~pool_pa:pool);
  describe "HS-mode store into the pool"
    (Hypervisor.Attacks.write_secure_memory machine ~pool_pa:pool);
  describe "device DMA into the pool"
    (Hypervisor.Attacks.dma_into_pool machine ~pool_pa:pool);

  print_endline "attacks on vCPU state:";
  (* Park a guest at an MMIO read so a reply is pending, then tamper. *)
  let prog =
    Guest.Gprog.blk_read_first_byte ~sector:0 ~len:16 @ Guest.Gprog.shutdown
  in
  let handle = Platform.Testbed.cvm tb prog in
  let id = Hypervisor.Kvm.cvm_id handle in
  let rec park n =
    if n > 50 then failwith "never reached the MMIO read";
    match
      Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:100_000
    with
    | Ok (Zion.Monitor.Exit_mmio m) when not m.Zion.Vcpu.mmio_write -> ()
    | Ok (Zion.Monitor.Exit_mmio _) ->
        (match Zion.Monitor.shared_vcpu_of mon ~cvm:id ~vcpu:0 with
        | Some sh ->
            sh.Zion.Vcpu.s_pc_advance <- 4L;
            sh.Zion.Vcpu.s_data <- 0L
        | None -> ());
        park (n + 1)
    | Ok (Zion.Monitor.Exit_shared_fault gpa) ->
        (match
           Hypervisor.Shared_map.map_fresh
             (Hypervisor.Kvm.cvm_shared_map handle)
             ~gpa:(Riscv.Xword.align_down gpa 4096L)
         with
        | Ok _ -> ()
        | Error e -> failwith e);
        park (n + 1)
    | Ok _ -> park (n + 1)
    | Error e -> failwith (Zion.Ecall.error_to_string e)
  in
  park 0;
  describe "redirect MMIO reply register (TOCTOU)"
    (Hypervisor.Attacks.tamper_mmio_reply_register mon ~cvm:id);
  describe "steal a guest register via GET_REG"
    (Hypervisor.Attacks.steal_vcpu_state mon ~cvm:id);

  print_endline "attacks through the split page table:";
  let handle2 = Platform.Testbed.cvm tb (Guest.Gprog.hello "victim") in
  ignore handle2;
  describe "map a secure page into the shared subtree"
    (Hypervisor.Attacks.map_foreign_secure_page mon
       (Hypervisor.Kvm.cvm_shared_map handle)
       ~victim_page:pool
       ~gpa:(Guest.Swiotlb.slot_gpa 10));

  print_endline "device DMA through a hostile shared mapping:";
  let kvm = tb.Platform.Testbed.kvm in
  describe "blk read into a pool page"
    (Hypervisor.Attacks.blk_read_into_pool kvm);
  describe "net RX fill into a pool page"
    (Hypervisor.Attacks.net_rx_into_pool kvm);
  describe "exitless ring over another CVM's page"
    (Hypervisor.Attacks.ring_alias_private_page kvm);

  print_endline "done: every attack must read BLOCKED above.";
  if !leaked then exit 1
