open Riscv

type switch_stats = {
  entry_mean : float;
  exit_mean : float;
  samples : int;
  attribution : (string * int) list;
}

let mean xs = Metrics.Stats.mean (Array.of_list (List.map float_of_int xs))

let attribution_of tb before =
  let after =
    Metrics.Ledger.snapshot tb.Testbed.machine.Machine.ledger
  in
  Metrics.Ledger.snapshot_totals
    (Metrics.Ledger.diff ~earlier:before ~later:after)

(* Guest that performs [n] MMIO loads from the virtio window. The loop
   body is fixed-size so the branch offset is static. *)
let mmio_load_loop n =
  let open Decode in
  Asm.li Asm.t0 Zion.Layout.virtio_mmio_gpa
  @ Asm.li Asm.t1 (Int64.of_int n)
  @ [
      (* loop: *)
      Load { rd = Asm.t2; rs1 = Asm.t0; imm = 0x10L; width = W;
             unsigned = false };
      Op_imm (Add, Asm.t1, Asm.t1, -1L);
      Branch (Bne, Asm.t1, 0, -8L);
    ]
  @ Guest.Gprog.shutdown

let mmio_program ~iterations = mmio_load_loop iterations

let measure_mmio_switches ~shared_vcpu ~iterations =
  let config = { Zion.Monitor.default_config with shared_vcpu } in
  let tb = Testbed.create ~config () in
  let handle = Testbed.cvm tb (mmio_load_loop iterations) in
  let before = Metrics.Ledger.snapshot tb.Testbed.machine.Machine.ledger in
  (match
     Hypervisor.Kvm.run_cvm tb.Testbed.kvm handle ~hart:0
       ~max_steps:10_000_000
   with
  | Hypervisor.Kvm.C_shutdown -> ()
  | other ->
      ignore other;
      failwith "exp_switch: MMIO guest did not shut down");
  (* Keep only the MMIO-flavoured switches: the first entry (cold) and
     the final exit (shutdown ecall) are plain and excluded. *)
  let entries = Zion.Monitor.entry_cycles tb.Testbed.monitor in
  let exits = Zion.Monitor.exit_cycles tb.Testbed.monitor in
  let plain_entry =
    Zion.Monitor.path_cost tb.Testbed.monitor Zion.Monitor.Entry_plain
  in
  let plain_exit =
    Zion.Monitor.path_cost tb.Testbed.monitor Zion.Monitor.Exit_plain
  in
  let mmio_entries = List.filter (fun c -> c <> plain_entry) entries in
  let mmio_exits = List.filter (fun c -> c <> plain_exit) exits in
  {
    entry_mean = mean mmio_entries;
    exit_mean = mean mmio_exits;
    samples = List.length mmio_exits;
    attribution = attribution_of tb before;
  }

type tlb_counters = {
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  tlb_hit_rate : float;
}

type mode_stats = { sw : switch_stats; tlb : tlb_counters }

(* Steady-state timer switches under [config]. TLB stats are reset
   after setup (pool registration and image load do mandatory full
   flushes in either TLB mode) so the counters describe the switch loop
   alone. *)
let measure_timer_switches ~config ~iterations =
  let tb = Testbed.create ~config () in
  let handle = Testbed.cvm tb [ Decode.Jal (0, 0L) ] in
  let harts = tb.Testbed.machine.Machine.harts in
  Array.iter (fun h -> Tlb.reset_stats h.Hart.tlb) harts;
  let before = Metrics.Ledger.snapshot tb.Testbed.machine.Machine.ledger in
  Testbed.enable_timer tb ~hart:0;
  for _ = 1 to iterations do
    Testbed.set_quantum tb ~hart:0 20_000;
    match
      Hypervisor.Kvm.run_cvm tb.Testbed.kvm handle ~hart:0
        ~max_steps:10_000_000
    with
    | Hypervisor.Kvm.C_timer -> ()
    | _ -> failwith "exp_switch: expected timer exit"
  done;
  let entries = Zion.Monitor.entry_cycles tb.Testbed.monitor in
  let exits = Zion.Monitor.exit_cycles tb.Testbed.monitor in
  let sum f = Array.fold_left (fun acc h -> acc + f h.Hart.tlb) 0 harts in
  let hits = sum Tlb.hits
  and misses = sum Tlb.misses
  and flushes = sum Tlb.flushes in
  let lookups = hits + misses in
  {
    sw =
      {
        entry_mean = mean entries;
        exit_mean = mean exits;
        samples = List.length exits;
        attribution = attribution_of tb before;
      };
    tlb =
      {
        tlb_hits = hits;
        tlb_misses = misses;
        tlb_flushes = flushes;
        tlb_hit_rate =
          (if lookups = 0 then 0.
           else float_of_int hits /. float_of_int lookups);
      };
  }

type report = {
  shared_on : switch_stats;
  shared_off : switch_stats;
  short_path : switch_stats;
  long_path : switch_stats;
}

let run ?(iterations = 200) () =
  let timer ~long_path =
    let config = { Zion.Monitor.default_config with long_path } in
    (measure_timer_switches ~config ~iterations).sw
  in
  {
    shared_on = measure_mmio_switches ~shared_vcpu:true ~iterations;
    shared_off = measure_mmio_switches ~shared_vcpu:false ~iterations;
    short_path = timer ~long_path:false;
    long_path = timer ~long_path:true;
  }

let paper =
  [
    ("entry shared-vCPU", 4191.);
    ("entry no-shared-vCPU", 5293.);
    ("exit shared-vCPU", 2524.);
    ("exit no-shared-vCPU", 3267.);
    ("entry short-path", 4028.);
    ("entry long-path", 7282.);
    ("exit short-path", 2406.);
    ("exit long-path", 5384.);
  ]
