type report = {
  normal_mean : float;
  stage1_mean : float;
  stage2_mean : float;
  stage3_mean : float;
  cvm_weighted_mean : float;
  stage1_count : int;
  stage2_count : int;
  stage3_count : int;
  normal_count : int;
  cvm_attribution : (string * int) list;
}

let mean = function
  | [] -> 0.
  | xs -> Metrics.Stats.mean (Array.of_list (List.map float_of_int xs))

let touch_and_stop pages =
  Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages @ Guest.Gprog.shutdown

let run ?(pages = 200) () =
  (* Normal VM arm. *)
  let tb_n = Testbed.create () in
  let nvm = Testbed.nvm tb_n (touch_and_stop pages) in
  (match
     Hypervisor.Kvm.run_normal_vm tb_n.Testbed.kvm nvm ~hart:0
       ~max_steps:10_000_000
   with
  | Hypervisor.Kvm.N_shutdown -> ()
  | _ -> failwith "exp_fault: normal VM did not shut down");
  let normal_count = Hypervisor.Kvm.nvm_fault_count tb_n.Testbed.kvm in
  (* Each fault charged its trap entry plus the rest under "kvm_fault". *)
  let normal_mean =
    let m = tb_n.Testbed.machine in
    if normal_count = 0 then 0.
    else
      (float_of_int
         (Metrics.Ledger.category_total m.Riscv.Machine.ledger "kvm_fault")
      /. float_of_int normal_count)
      +. float_of_int m.Riscv.Machine.cost.Riscv.Cost.trap_entry
  in
  (* CVM arm, with a pool small enough that the touch storm crosses a
     stage-3 expansion (1 MiB = 4 blocks). *)
  let tb_c = Testbed.create ~pool_mib:1 () in
  let handle = Testbed.cvm tb_c (touch_and_stop pages) in
  let ledger = tb_c.Testbed.machine.Riscv.Machine.ledger in
  let before = Metrics.Ledger.snapshot ledger in
  (match
     Hypervisor.Kvm.run_cvm_to_completion tb_c.Testbed.kvm handle ~hart:0
       ~quantum:Testbed.quantum_cycles ~max_slices:100
   with
  | Hypervisor.Kvm.C_shutdown -> ()
  | _ -> failwith "exp_fault: CVM did not shut down");
  let log = Zion.Monitor.fault_log tb_c.Testbed.monitor in
  let by_stage s =
    List.filter_map (fun (st, c) -> if st = s then Some c else None) log
  in
  let s1 = by_stage Zion.Hier_alloc.Stage1 in
  let s2 = by_stage Zion.Hier_alloc.Stage2 in
  let s3 = by_stage Zion.Hier_alloc.Stage3_retry in
  {
    normal_mean;
    stage1_mean = mean s1;
    stage2_mean = mean s2;
    stage3_mean = mean s3;
    cvm_weighted_mean = mean (List.map snd log);
    stage1_count = List.length s1;
    stage2_count = List.length s2;
    stage3_count = List.length s3;
    normal_count;
    cvm_attribution =
      Metrics.Ledger.snapshot_totals
        (Metrics.Ledger.diff ~earlier:before
           ~later:(Metrics.Ledger.snapshot ledger));
  }

let paper =
  [
    ("normal VM", 39607.);
    ("CVM stage 1", 31103.);
    ("CVM stage 2", 34729.);
    ("CVM stage 3", 57152.);
    ("CVM average", 31449.);
  ]
