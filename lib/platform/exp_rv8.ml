type row = {
  name : string;
  checksum : string;
  normal_gcycles : float;
  cvm_gcycles : float;
  overhead_pct : float;
  paper_overhead_pct : float;
}

let paper_table1 =
  [
    ("aes", 6.312, 2.95); ("bigint", 8.965, 2.73); ("dhrystone", 4.144, 2.90);
    ("miniz", 25.412, 1.92); ("norx", 3.905, 2.79); ("primes", 19.002, 1.81);
    ("qsort", 2.148, 2.65); ("sha512", 3.947, 2.93);
  ]

let paper_coremark = (2047.6, 1992.3)

(* Working sets are small and constant per kernel: demand paging is a
   one-time cost at this scale. *)
let startup_fault_pages = 256

let price_arms ~(monitor : Zion.Monitor.t) ~locality ~ops ~target_gcycles =
  let normal =
    Macro_vm.create ~kind:Macro_vm.Normal ~monitor ~locality ()
  in
  let cvm =
    Macro_vm.create ~kind:Macro_vm.(Confidential Exitful) ~monitor ~locality ()
  in
  (* Fix the replication factor so the normal arm reproduces Table I's
     baseline column, then apply the identical work to both arms. *)
  let cost = (Zion.Monitor.machine monitor).Riscv.Machine.cost in
  let w_small = float_of_int (Workloads.Opcount.cycles cost ops) in
  let target = target_gcycles *. 1e9 in
  (* invert the tick dilation of the normal arm *)
  let tick_n = float_of_int cost.Riscv.Cost.hs_timer_tick in
  let quantum = float_of_int Testbed.quantum_cycles in
  let work_needed = target *. (1. -. (tick_n /. quantum)) in
  let factor = work_needed /. w_small in
  let scaled = Workloads.Opcount.scale ops factor in
  Macro_vm.add_ops normal scaled;
  Macro_vm.add_ops cvm scaled;
  Macro_vm.add_faults normal ~pages:startup_fault_pages;
  Macro_vm.add_faults cvm ~pages:startup_fault_pages;
  (Macro_vm.total_cycles normal, Macro_vm.total_cycles cvm)

let run_table1 () =
  let tb = Testbed.create () in
  let monitor = tb.Testbed.monitor in
  List.map
    (fun (r : Workloads.Rv8.result) ->
      let paper_overhead_pct =
        match
          List.find_opt (fun (n, _, _) -> n = r.Workloads.Rv8.name)
            paper_table1
        with
        | Some (_, _, p) -> p
        | None -> nan
      in
      let n_cycles, c_cycles =
        price_arms ~monitor ~locality:r.Workloads.Rv8.locality
          ~ops:r.Workloads.Rv8.ops
          ~target_gcycles:r.Workloads.Rv8.target_gcycles
      in
      {
        name = r.Workloads.Rv8.name;
        checksum = r.Workloads.Rv8.checksum;
        normal_gcycles = n_cycles /. 1e9;
        cvm_gcycles = c_cycles /. 1e9;
        overhead_pct =
          Metrics.Stats.pct_change ~baseline:n_cycles c_cycles;
        paper_overhead_pct;
      })
    (Workloads.Rv8.run_all ~scale:1)

let average_overhead rows =
  Metrics.Stats.mean
    (Array.of_list (List.map (fun r -> r.overhead_pct) rows))

type coremark = {
  crc_ok : bool;
  normal_score : float;
  cvm_score : float;
  drop_pct : float;
}

let run_coremark () =
  let tb = Testbed.create () in
  let monitor = tb.Testbed.monitor in
  let result = Workloads.Coremark.run ~iterations:3 in
  let crc_ok = result.Workloads.Coremark.crc = Workloads.Coremark.reference_crc in
  (* CoreMark reports iterations/second over a multi-second run (the
     EEMBC rules demand >= 10 s). Replicate the measured mix up to a
     paper-equivalent run long enough that one-time effects vanish, with
     the normal arm pinned to the paper's score at 100 MHz. *)
  let clock_hz = 1e8 in
  let target_cycles_per_iter =
    clock_hz /. Workloads.Coremark.target_score_normal
  in
  let equivalent_iters = 60_000 (* ~30 s at the paper's score *) in
  let n_cycles, c_cycles =
    price_arms ~monitor ~locality:result.Workloads.Coremark.locality
      ~ops:result.Workloads.Coremark.ops
      ~target_gcycles:
        (target_cycles_per_iter *. float_of_int equivalent_iters /. 1e9)
  in
  let per_iter_n = n_cycles /. float_of_int equivalent_iters in
  let per_iter_c = c_cycles /. float_of_int equivalent_iters in
  let normal_score = clock_hz /. per_iter_n in
  let cvm_score = clock_hz /. per_iter_c in
  {
    crc_ok;
    normal_score;
    cvm_score;
    drop_pct = (normal_score -. cvm_score) /. normal_score *. 100.;
  }
