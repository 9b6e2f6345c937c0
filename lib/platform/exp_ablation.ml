type block_size_point = {
  block_kb : int;
  stage1_pct : float;
  avg_fault_cycles : float;
}

let stage2_cost c = Riscv.Cost.sm_fault_base c + c.Riscv.Cost.block_grab

let block_size_sweep ?(pages = 512) () =
  let c = Riscv.Cost.default in
  List.map
    (fun block_kb ->
      (* A block of size B serves B/4 KiB page-cache hits per grab. *)
      let pages_per_block = block_kb / 4 in
      let stage2 = (pages + pages_per_block - 1) / pages_per_block in
      let stage1 = pages - stage2 in
      let total =
        (stage1 * Riscv.Cost.sm_fault_base c) + (stage2 * stage2_cost c)
      in
      {
        block_kb;
        stage1_pct = float_of_int stage1 /. float_of_int pages *. 100.;
        avg_fault_cycles = float_of_int total /. float_of_int pages;
      })
    [ 64; 128; 256; 512; 1024 ]

type cache_ablation = {
  with_cache_avg : float;
  without_cache_avg : float;
  penalty_pct : float;
}

let page_cache_ablation ?(pages = 512) () =
  let c = Riscv.Cost.default in
  let with_cache =
    let stage2 = (pages + 63) / 64 in
    let stage1 = pages - stage2 in
    float_of_int
      ((stage1 * Riscv.Cost.sm_fault_base c) + (stage2 * stage2_cost c))
    /. float_of_int pages
  in
  let without_cache = float_of_int (stage2_cost c) in
  {
    with_cache_avg = with_cache;
    without_cache_avg = without_cache;
    penalty_pct = (without_cache -. with_cache) /. with_cache *. 100.;
  }

type hardened_point = { shared_pages : int; entry_cycles : int }

let hardened_entry_costs () =
  (* Exercise the real monitor: build a CVM whose shared subtree maps N
     pages, enable validate-on-entry, trigger one timer entry and read
     the recorded entry cost. *)
  List.map
    (fun shared_pages ->
      let config =
        { Zion.Monitor.default_config with validate_shared_on_entry = true }
      in
      let tb = Testbed.create ~config () in
      let handle = Testbed.cvm tb [ Riscv.Decode.Jal (0, 0L) ] in
      let shared = Hypervisor.Kvm.cvm_shared_map handle in
      for i = 0 to shared_pages - 1 do
        (* beyond the pre-mapped SWIOTLB window *)
        let gpa =
          Int64.add Zion.Layout.shared_gpa_base
            (Int64.of_int ((256 + i) * 4096))
        in
        match Hypervisor.Shared_map.map_fresh shared ~gpa with
        | Ok _ -> ()
        | Error e -> failwith e
      done;
      Testbed.enable_timer tb ~hart:0;
      Testbed.set_quantum tb ~hart:0 20_000;
      (match
         Hypervisor.Kvm.run_cvm tb.Testbed.kvm handle ~hart:0
           ~max_steps:1_000_000
       with
      | Hypervisor.Kvm.C_timer -> ()
      | _ -> failwith "hardened_entry_costs: expected timer exit");
      match Zion.Monitor.entry_cycles tb.Testbed.monitor with
      | e :: _ -> { shared_pages; entry_cycles = e }
      | [] -> failwith "no entry recorded")
    [ 0; 64; 128; 256; 512 ]

type scalability = { zion_cvms_run : int; cure_style_limit : int }

let scalability ?(cvms = 24) () =
  (* CURE-style region isolation: one PMP entry per enclave, minus the
     entries the firmware itself needs (the paper counts 13 usable). *)
  let cure_style_limit = 13 in
  (* pool regions must be NAPOT (power-of-two) for the PMP guard *)
  let tb = Testbed.create ~pool_mib:64 ~dram_mib:512 () in
  let sched = Hypervisor.Sched.create tb.Testbed.kvm ~quantum:200_000 in
  for i = 0 to cvms - 1 do
    let c = Char.chr (Char.code 'A' + (i mod 26)) in
    Hypervisor.Sched.add sched (Testbed.cvm tb (Guest.Gprog.hello (String.make 1 c)))
  done;
  let outcomes = Hypervisor.Sched.run sched ~hart:0 ~max_rounds:200 in
  let finished =
    List.length
      (List.filter (fun (_, o) -> o = Hypervisor.Kvm.C_shutdown) outcomes)
  in
  { zion_cvms_run = finished; cure_style_limit }
