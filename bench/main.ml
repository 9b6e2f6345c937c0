(* ZION benchmark harness: regenerates every table and figure of the
   paper's evaluation section (§V), prints paper-vs-measured rows, runs
   the reproduction's micro benches and finishes with wall-clock
   microbenchmarks of the simulator itself (Bechamel).

   Usage: dune exec bench/main.exe -- [--quick] [SECTION ...]
   SECTIONs are the names in [sections] below, which is also the run
   order; with none, every section runs, and an unknown name exits 2.
   --quick shrinks the simulator A/B, the channel ping-pong and the
   Bechamel quota for fast CI runs; the paper experiments run at paper
   size in every mode. Micro benches write their results to
   BENCH_<name>.json; every gate is checked here, and the run exits 1
   if any gate failed. *)

let quick = Array.exists (fun a -> a = "--quick") Sys.argv

let fixed = Metrics.Table.fixed
let pct = Metrics.Table.signed_pct

(* ---------- gates and result files ---------- *)

let failed_gates = ref []

(* The one place a pass/fail check is made. *)
let gate name ok detail =
  if ok then Printf.printf "gate %s: OK\n" name
  else begin
    Printf.printf "FAIL: %s: %s\n" name detail;
    failed_gates := name :: !failed_gates
  end

let gate_shutdown what outcome =
  gate (what ^ " shuts down")
    (outcome = Hypervisor.Kvm.C_shutdown)
    "guest did not reach its shutdown ecall"

let num = Metrics.Export.num_of_int

let write_result file v =
  let oc = open_out file in
  output_string oc (Metrics.Export.json_to_string v);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n" file

(* ---------- §V.B.1 / §V.B.2 : switch experiments ---------- *)

let bench_switches () =
  Metrics.Table.section
    "§V.B.1 — shared-vCPU optimisation (MMIO switches, 200 iterations)";
  let r = Platform.Exp_switch.run () in
  let row name measured paper_v =
    [
      name; fixed 0 measured; fixed 0 paper_v;
      pct (Metrics.Stats.pct_change ~baseline:paper_v measured);
    ]
  in
  let paper = Platform.Exp_switch.paper in
  let p k = List.assoc k paper in
  Metrics.Table.print
    ~header:[ "switch"; "measured (cycles)"; "paper"; "delta %" ]
    [
      row "CVM entry, shared vCPU"
        r.Platform.Exp_switch.shared_on.Platform.Exp_switch.entry_mean
        (p "entry shared-vCPU");
      row "CVM entry, no shared vCPU"
        r.Platform.Exp_switch.shared_off.Platform.Exp_switch.entry_mean
        (p "entry no-shared-vCPU");
      row "CVM exit, shared vCPU"
        r.Platform.Exp_switch.shared_on.Platform.Exp_switch.exit_mean
        (p "exit shared-vCPU");
      row "CVM exit, no shared vCPU"
        r.Platform.Exp_switch.shared_off.Platform.Exp_switch.exit_mean
        (p "exit no-shared-vCPU");
    ];
  let entry_gain =
    (r.Platform.Exp_switch.shared_off.Platform.Exp_switch.entry_mean
    -. r.Platform.Exp_switch.shared_on.Platform.Exp_switch.entry_mean)
    /. r.Platform.Exp_switch.shared_off.Platform.Exp_switch.entry_mean
    *. 100.
  in
  let exit_gain =
    (r.Platform.Exp_switch.shared_off.Platform.Exp_switch.exit_mean
    -. r.Platform.Exp_switch.shared_on.Platform.Exp_switch.exit_mean)
    /. r.Platform.Exp_switch.shared_off.Platform.Exp_switch.exit_mean
    *. 100.
  in
  Printf.printf
    "shared-vCPU improvement: entry %.1f%% (paper 20.8%%), exit %.1f%% (paper 22.74%%)\n"
    entry_gain exit_gain;

  Metrics.Table.section
    "§V.B.2 — short-path vs long-path (timer switches, 200 iterations)";
  Metrics.Table.print
    ~header:[ "switch"; "measured (cycles)"; "paper"; "delta %" ]
    [
      row "CVM entry, short path"
        r.Platform.Exp_switch.short_path.Platform.Exp_switch.entry_mean
        (p "entry short-path");
      row "CVM entry, long path"
        r.Platform.Exp_switch.long_path.Platform.Exp_switch.entry_mean
        (p "entry long-path");
      row "CVM exit, short path"
        r.Platform.Exp_switch.short_path.Platform.Exp_switch.exit_mean
        (p "exit short-path");
      row "CVM exit, long path"
        r.Platform.Exp_switch.long_path.Platform.Exp_switch.exit_mean
        (p "exit long-path");
    ];
  let se =
    (r.Platform.Exp_switch.long_path.Platform.Exp_switch.entry_mean
    -. r.Platform.Exp_switch.short_path.Platform.Exp_switch.entry_mean)
    /. r.Platform.Exp_switch.long_path.Platform.Exp_switch.entry_mean
    *. 100.
  in
  let sx =
    (r.Platform.Exp_switch.long_path.Platform.Exp_switch.exit_mean
    -. r.Platform.Exp_switch.short_path.Platform.Exp_switch.exit_mean)
    /. r.Platform.Exp_switch.long_path.Platform.Exp_switch.exit_mean
    *. 100.
  in
  Printf.printf
    "short-path improvement: entry %.1f%% (paper 44.7%%), exit %.1f%% (paper 55.3%%)\n"
    se sx;
  Metrics.Table.section
    "§V.B attribution — ledger cycle deltas over the shared-vCPU run";
  Metrics.Table.print
    ~header:[ "category"; "cycles" ]
    (List.map
       (fun (c, n) -> [ c; string_of_int n ])
       r.Platform.Exp_switch.shared_on.Platform.Exp_switch.attribution)

(* ---------- TLB retention fast path vs paper-faithful flush ---------- *)

(* Timer-switch storm under both TLB modes. Emits BENCH_switch.json and
   gates on the modeled saving: retention drops one tlb_full_flush from
   each direction of the switch. *)
let bench_tlb_retention () =
  Metrics.Table.section
    "TLB retention — VMID-tagged fast path vs flush-on-every-switch";
  let measure tlb_retention =
    Platform.Exp_switch.measure_timer_switches
      ~config:{ Zion.Monitor.default_config with tlb_retention }
      ~iterations:200
  in
  let faithful = measure false in
  let retained = measure true in
  let row name (m : Platform.Exp_switch.mode_stats) =
    let sw = m.Platform.Exp_switch.sw and tlb = m.Platform.Exp_switch.tlb in
    [
      name;
      fixed 0 sw.Platform.Exp_switch.entry_mean;
      fixed 0 sw.Platform.Exp_switch.exit_mean;
      string_of_int tlb.Platform.Exp_switch.tlb_hits;
      string_of_int tlb.Platform.Exp_switch.tlb_misses;
      string_of_int tlb.Platform.Exp_switch.tlb_flushes;
      fixed 3 tlb.Platform.Exp_switch.tlb_hit_rate;
    ]
  in
  Metrics.Table.print
    ~header:
      [ "mode"; "entry"; "exit"; "tlb hits"; "misses"; "flushes";
        "hit rate" ]
    [ row "paper-faithful (full flush)" faithful;
      row "retained (VMID-tagged)" retained ];
  let pair (m : Platform.Exp_switch.mode_stats) =
    m.Platform.Exp_switch.sw.Platform.Exp_switch.entry_mean
    +. m.Platform.Exp_switch.sw.Platform.Exp_switch.exit_mean
  in
  let drop = pair faithful -. pair retained in
  let want = 2 * Riscv.Cost.default.Riscv.Cost.tlb_full_flush in
  Printf.printf
    "steady-state entry+exit saving: %.0f cycles (expected >= %d: two \
     tlb_full_flush charges)\n"
    drop want;
  let mode_json (m : Platform.Exp_switch.mode_stats) =
    let open Platform.Exp_switch in
    let total mean = num (int_of_float (mean *. float_of_int m.sw.samples)) in
    Metrics.Export.Obj
      [
        ("samples", num m.sw.samples);
        ("entry_mean_cycles", Num m.sw.entry_mean);
        ("exit_mean_cycles", Num m.sw.exit_mean);
        ("entry_total_cycles", total m.sw.entry_mean);
        ("exit_total_cycles", total m.sw.exit_mean);
        ("tlb_hits", num m.tlb.tlb_hits);
        ("tlb_misses", num m.tlb.tlb_misses);
        ("tlb_flushes", num m.tlb.tlb_flushes);
        ("tlb_hit_rate", Num m.tlb.tlb_hit_rate);
      ]
  in
  write_result "BENCH_switch.json"
    (Obj
       [
         ("faithful", mode_json faithful);
         ("retained", mode_json retained);
         ("pair_saving_cycles", Num drop);
       ]);
  gate "retention pair saving"
    (drop >= float_of_int want)
    (Printf.sprintf "%.0f cycles (< %d)" drop want)

(* ---------- §V.C : stage-2 page-fault handling ---------- *)

let bench_faults () =
  Metrics.Table.section "§V.C — stage-2 page-fault handling";
  let r = Platform.Exp_fault.run () in
  let paper = Platform.Exp_fault.paper in
  let p k = List.assoc k paper in
  let row name measured paper_v n =
    [
      name; fixed 0 measured; fixed 0 paper_v;
      pct (Metrics.Stats.pct_change ~baseline:paper_v measured);
      string_of_int n;
    ]
  in
  Metrics.Table.print
    ~header:[ "path"; "measured (cycles)"; "paper"; "delta %"; "faults" ]
    [
      row "normal VM (KVM)" r.Platform.Exp_fault.normal_mean
        (p "normal VM") r.Platform.Exp_fault.normal_count;
      row "CVM stage 1" r.Platform.Exp_fault.stage1_mean (p "CVM stage 1")
        r.Platform.Exp_fault.stage1_count;
      row "CVM stage 2" r.Platform.Exp_fault.stage2_mean (p "CVM stage 2")
        r.Platform.Exp_fault.stage2_count;
      row "CVM stage 3" r.Platform.Exp_fault.stage3_mean (p "CVM stage 3")
        r.Platform.Exp_fault.stage3_count;
      row "CVM average" r.Platform.Exp_fault.cvm_weighted_mean
        (p "CVM average")
        (r.Platform.Exp_fault.stage1_count
        + r.Platform.Exp_fault.stage2_count
        + r.Platform.Exp_fault.stage3_count);
    ];
  Metrics.Table.section
    "§V.C attribution — ledger cycle deltas over the CVM arm";
  Metrics.Table.print
    ~header:[ "category"; "cycles" ]
    (List.map
       (fun (c, n) -> [ c; string_of_int n ])
       r.Platform.Exp_fault.cvm_attribution)

(* ---------- Observability: flight-recorder summary ---------- *)

(* Re-run a small MMIO switch storm with the SM flight recorder enabled
   ([Platform.Telemetry], the run behind [zionctl telemetry]) and print
   the counters/histograms it collected — the per-experiment summary the
   recorder produces for any traced run. *)
let bench_observability () =
  Metrics.Table.section
    "Observability — SM flight recorder over a 50-switch MMIO storm";
  let r = Platform.Telemetry.run Platform.Telemetry.Switch in
  let mon = r.Platform.Telemetry.testbed.Platform.Testbed.monitor in
  gate_shutdown "traced guest" r.Platform.Telemetry.outcome;
  print_string (Metrics.Registry.dump (Zion.Monitor.registry mon));
  print_string (Platform.Telemetry.trace_summary r)

(* ---------- Observability: profiler sampling overhead ---------- *)

(* Wall-clock cost of the guest PC-sampling hook: run the same
   interpreter-bound guest with the profiler off and on (default
   interval) and gate on the median per-pair overhead over 21
   interleaved pairs of half-length runs
   ([Metrics.Stats.interleaved_pairs]: four runs a pair, each arm timed
   by the faster of its two). The disabled path is one dead branch per
   retired instruction; the enabled path a
   decrement/compare/store on the hart — the contract is < 5 %
   overhead. Emits BENCH_profile.json (median and quartiles) for CI. *)
let bench_profile () =
  Metrics.Table.section
    "Observability — PC-sampling profiler overhead (host wall-clock)";
  let steps = 1_000_000 in
  let interval = 64 in
  let pairs = 21 in
  let tb = Platform.Testbed.create () in
  let mon = tb.Platform.Testbed.monitor in
  (* Infinite guest loop: every run is exactly [steps] retired
     instructions of pure interpreter work. *)
  let handle = Platform.Testbed.cvm tb [ Riscv.Decode.Jal (0, 0L) ] in
  let one_run ~profiled =
    if profiled then Zion.Monitor.enable_profiler ~interval mon
    else Zion.Monitor.disable_profiler mon;
    let t0 = Sys.time () in
    (match
       Hypervisor.Kvm.run_cvm tb.Platform.Testbed.kvm handle ~hart:0
         ~max_steps:steps
     with
    | Hypervisor.Kvm.C_limit -> ()
    | _ -> failwith "bench_profile: expected step-limit exit");
    Sys.time () -. t0
  in
  ignore (one_run ~profiled:false) (* warm up allocator and code paths *);
  let off, on =
    Metrics.Stats.interleaved_pairs ~pairs (fun ~on -> one_run ~profiled:on)
  in
  Zion.Monitor.disable_profiler mon;
  let overhead =
    Array.init pairs (fun i -> (on.(i) -. off.(i)) /. off.(i) *. 100.)
  in
  let q p xs = Metrics.Stats.percentile p xs in
  let overhead_pct = q 50. overhead in
  let p =
    match Zion.Monitor.profiler mon with
    | Some p -> p
    | None -> failwith "bench_profile: profiler missing"
  in
  Metrics.Table.print
    ~header:[ "arm (faster of 2 per pair)"; "median s"; "p25 s"; "p75 s" ]
    [
      [ "profiler off"; fixed 4 (q 50. off); fixed 4 (q 25. off);
        fixed 4 (q 75. off) ];
      [ "profiler on"; fixed 4 (q 50. on); fixed 4 (q 25. on);
        fixed 4 (q 75. on) ];
    ];
  Printf.printf
    "overhead per pair (%d pairs): median %s [p25 %s, p75 %s]\n" pairs
    (pct overhead_pct)
    (pct (q 25. overhead))
    (pct (q 75. overhead));
  Printf.printf "samples: %d (interval %d retired instructions)\n"
    (Metrics.Profile.samples p)
    (Metrics.Profile.interval p);
  let quartiles xs =
    Metrics.Export.Obj
      [ ("p25", Num (q 25. xs)); ("median", Num (q 50. xs));
        ("p75", Num (q 75. xs)) ]
  in
  let top_page (cvm, page, region, hits) =
    Metrics.Export.Obj
      [
        ("cvm", num cvm);
        ("page", Str (Printf.sprintf "0x%Lx" page));
        ("region", match region with Some r -> Str r | None -> Null);
        ("hits", num hits);
      ]
  in
  write_result "BENCH_profile.json"
    (Obj
       [
         ("pairs", num pairs);
         ("runs_per_pair", num 4);
         ("steps_per_run", num steps);
         ("off_s", quartiles off);
         ("on_s", quartiles on);
         ("overhead_pct", Num overhead_pct);
         ("overhead_pct_p25", Num (q 25. overhead));
         ("overhead_pct_p75", Num (q 75. overhead));
         ("samples", num (Metrics.Profile.samples p));
         ("interval", num (Metrics.Profile.interval p));
         ("top_pages", List (List.map top_page (Metrics.Profile.top_pages ~k:3 p)));
       ]);
  gate "profiler median overhead" (overhead_pct < 5.)
    (Printf.sprintf "%.2f%% (>= 5%%)" overhead_pct)

(* ---------- Table I : RV8 ---------- *)

let bench_rv8 () =
  Metrics.Table.section
    "Table I — RV8 benchmarks (10^9 cycles, normal VM vs confidential VM)";
  let rows = Platform.Exp_rv8.run_table1 () in
  Metrics.Table.print
    ~header:
      [ "benchmark"; "normal VM"; "confidential VM"; "overhead %";
        "paper %" ]
    (List.map
       (fun (r : Platform.Exp_rv8.row) ->
         [
           r.Platform.Exp_rv8.name;
           fixed 3 r.Platform.Exp_rv8.normal_gcycles;
           fixed 3 r.Platform.Exp_rv8.cvm_gcycles;
           pct r.Platform.Exp_rv8.overhead_pct;
           pct r.Platform.Exp_rv8.paper_overhead_pct;
         ])
       rows);
  Printf.printf "average overhead: %+.2f%% (paper +2.59%%)\n"
    (Platform.Exp_rv8.average_overhead rows);
  print_endline "kernel checksums (correctness witnesses):";
  List.iter
    (fun (r : Platform.Exp_rv8.row) ->
      Printf.printf "  %-10s %s\n" r.Platform.Exp_rv8.name
        (let c = r.Platform.Exp_rv8.checksum in
         if String.length c > 32 then String.sub c 0 32 ^ "..." else c))
    rows

(* ---------- CoreMark ---------- *)

let bench_coremark () =
  Metrics.Table.section "§V.D — CoreMark";
  let r = Platform.Exp_rv8.run_coremark () in
  let paper_n, paper_c = Platform.Exp_rv8.paper_coremark in
  Metrics.Table.print
    ~header:[ "metric"; "measured"; "paper" ]
    [
      [ "normal VM score"; fixed 1 r.Platform.Exp_rv8.normal_score;
        fixed 1 paper_n ];
      [ "confidential VM score"; fixed 1 r.Platform.Exp_rv8.cvm_score;
        fixed 1 paper_c ];
      [ "drop %"; fixed 2 r.Platform.Exp_rv8.drop_pct;
        fixed 2 ((paper_n -. paper_c) /. paper_n *. 100.) ];
      [ "validation CRC"; (if r.Platform.Exp_rv8.crc_ok then "ok" else "FAIL");
        "ok" ];
    ]

(* ---------- Simulator fast path : instructions per wall-second ---------- *)

(* A/B of the cached-dispatch interpreter (per-page decode cache +
   translation memos + timer-poll hoist), via [Platform.Exp_sim]. The
   Table-I rv8 entries are analytic op-count models, so they cannot
   exercise the interpreter; Exp_sim's mixes are real guest loops
   stepped instruction by instruction, with the fast path off and on,
   over interleaved pairs of runs as in [bench_profile]. Emits
   BENCH_sim.json and gates each workload on registers, pc, minstret
   and the full cycle ledger being identical on every run, on a median
   per-pair speedup of at least 3x, and on the fast arm's counters
   showing decode fills and memo hits. *)

let bench_sim () =
  Metrics.Table.section
    "Simulator fast path — instructions per wall-second (A/B)";
  let steps = if quick then 100_000 else 400_000 in
  let results =
    List.map (fun w -> Platform.Exp_sim.ab_compare w ~steps)
      Platform.Exp_sim.all
  in
  Metrics.Table.print
    ~header:
      [ "workload"; "baseline instr/s"; "fast instr/s"; "speedup";
        "p25-p75"; "arch state + ledger" ]
    (List.map
       (fun (r : Platform.Exp_sim.ab) ->
         [
           Platform.Exp_sim.name r.Platform.Exp_sim.workload;
           fixed 0 r.Platform.Exp_sim.baseline_ips;
           fixed 0 r.Platform.Exp_sim.fast_ips;
           Printf.sprintf "%.2fx" r.Platform.Exp_sim.speedup;
           Printf.sprintf "%.2f-%.2fx" r.Platform.Exp_sim.speedup_p25
             r.Platform.Exp_sim.speedup_p75;
           (if r.Platform.Exp_sim.identical then "identical" else "DIVERGED");
         ])
       results);
  Printf.printf
    "median of %d interleaved pairs of %d-step runs, each arm timed by \
     the faster of its two runs per pair\n"
    Platform.Exp_sim.pairs steps;
  let workload_json (r : Platform.Exp_sim.ab) =
    let open Platform.Exp_sim in
    let st = r.fast_stats in
    Metrics.Export.Obj
      [
        ("name", Str (name r.workload));
        ("baseline_ips", Num r.baseline_ips);
        ("fast_ips", Num r.fast_ips);
        ("speedup", Num r.speedup);
        ("speedup_p25", Num r.speedup_p25);
        ("speedup_p75", Num r.speedup_p75);
        ("identical", Bool r.identical);
        ( "fast_path",
          Obj
            [
              ("decode_fills", num st.Riscv.Hart.decode_fills);
              ("revalidations", num st.Riscv.Hart.revalidations);
              ("evictions", num st.Riscv.Hart.evictions);
              ("fetch_memo_hits", num st.Riscv.Hart.fetch_memo_hits);
              ("load_memo_hits", num st.Riscv.Hart.load_memo_hits);
              ("store_memo_hits", num st.Riscv.Hart.store_memo_hits);
            ] );
      ]
  in
  write_result "BENCH_sim.json"
    (Obj
       [
         ("steps_per_run", num steps);
         ("pairs", num Platform.Exp_sim.pairs);
         ("workloads", List (List.map workload_json results));
       ]);
  List.iter
    (fun (r : Platform.Exp_sim.ab) ->
      let open Platform.Exp_sim in
      let w = name r.workload and st = r.fast_stats in
      let memo_hits =
        st.Riscv.Hart.fetch_memo_hits + st.Riscv.Hart.load_memo_hits
        + st.Riscv.Hart.store_memo_hits
      in
      gate (w ^ " fast = slow") r.identical
        "arch state or ledger diverged between fast and slow stepping";
      gate (w ^ " median speedup >= 3x") (r.speedup >= 3.)
        (Printf.sprintf "%.2fx [p25 %.2fx, p75 %.2fx]" r.speedup
           r.speedup_p25 r.speedup_p75);
      gate (w ^ " fast-path caches in use")
        (st.Riscv.Hart.decode_fills > 0 && memo_hits > 0)
        (Printf.sprintf "%d decode fills, %d memo hits"
           st.Riscv.Hart.decode_fills memo_hits))
    results

(* ---------- Figure 3 : Redis ---------- *)

(* One run per priced experiment, shared by its figure's section and by
   [bench_exitless], which reads the exitless arm priced from it. *)
let redis_rows = lazy (Platform.Exp_redis.run ())
let iozone_points = lazy (Platform.Exp_iozone.run ())

let bench_redis () =
  Metrics.Table.section
    "Figure 3 — Redis throughput and latency (10 rounds x 10,000 requests)";
  let rows = Lazy.force redis_rows in
  Metrics.Table.print
    ~header:
      [ "operation"; "normal kQPS"; "CVM kQPS"; "thr. drop %";
        "normal lat ms"; "CVM lat ms"; "lat incr %" ]
    (List.map
       (fun (r : Platform.Exp_redis.row) ->
         [
           r.Platform.Exp_redis.op;
           fixed 3 r.Platform.Exp_redis.normal_kqps;
           fixed 3 r.Platform.Exp_redis.cvm_kqps;
           fixed 2 r.Platform.Exp_redis.throughput_drop_pct;
           fixed 2 r.Platform.Exp_redis.normal_latency_ms;
           fixed 2 r.Platform.Exp_redis.cvm_latency_ms;
           fixed 2 r.Platform.Exp_redis.latency_increase_pct;
         ])
       rows);
  print_endline "\nthroughput by operation (kQPS):";
  print_string
    (Metrics.Chart.grouped_bars ~group_labels:[ "normal"; "CVM" ]
       (List.map
          (fun (r : Platform.Exp_redis.row) ->
            ( r.Platform.Exp_redis.op,
              [ r.Platform.Exp_redis.normal_kqps;
                r.Platform.Exp_redis.cvm_kqps ] ))
          rows));
  let pt, pl = Platform.Exp_redis.paper_avgs in
  Printf.printf
    "average: throughput -%.2f%% (paper -%.1f%%), latency +%.2f%% (paper +%.1f%%)\n"
    (Platform.Exp_redis.average_throughput_drop rows)
    pt
    (Platform.Exp_redis.average_latency_increase rows)
    pl

(* ---------- Figure 4 : IOZone ---------- *)

let bench_iozone () =
  Metrics.Table.section
    "Figure 4 — IOZone sequential I/O throughput (MB/s)";
  let points = Lazy.force iozone_points in
  let by_op op =
    List.filter (fun p -> p.Platform.Exp_iozone.op = op) points
  in
  let print_op name op =
    Printf.printf "\n%s:\n" name;
    Metrics.Table.print
      ~header:
        [ "file"; "record"; "normal MB/s"; "CVM MB/s"; "overhead %" ]
      (List.map
         (fun (pnt : Platform.Exp_iozone.point) ->
           let human kb =
             if kb >= 1024 then Printf.sprintf "%dM" (kb / 1024)
             else Printf.sprintf "%dK" kb
           in
           [
             human pnt.Platform.Exp_iozone.file_kb;
             human pnt.Platform.Exp_iozone.record_kb;
             fixed 2 pnt.Platform.Exp_iozone.normal_mb_s;
             fixed 2 pnt.Platform.Exp_iozone.cvm_mb_s;
             pct pnt.Platform.Exp_iozone.overhead_pct;
           ])
         (by_op op))
  in
  print_op "sequential write" Workloads.Iozone.Write;
  print_op "sequential read" Workloads.Iozone.Read;
  (* The figure itself: CVM overhead vs file size, one glyph per record
     size (x is log2 of the file size in KiB). *)
  let overhead_series op =
    List.map
      (fun record_kb ->
        ( Printf.sprintf "%d KiB records" record_kb,
          List.filter_map
            (fun (p : Platform.Exp_iozone.point) ->
              if
                p.Platform.Exp_iozone.op = op
                && p.Platform.Exp_iozone.record_kb = record_kb
              then
                Some
                  ( log (float_of_int p.Platform.Exp_iozone.file_kb) /. log 2.,
                    p.Platform.Exp_iozone.overhead_pct )
              else None)
            points ))
      Workloads.Iozone.record_sizes_kb
  in
  print_endline "\nCVM overhead vs file size (write):";
  print_string
    (Metrics.Chart.series ~x_label:"log2(file KiB)" ~y_label:"overhead %"
       (overhead_series Workloads.Iozone.Write));
  Printf.printf
    "\nmax overhead %.1f%% (paper: up to 20%%); files <= 16 MiB max %.1f%% (paper: under 5%%)\n"
    (Platform.Exp_iozone.max_overhead points)
    (Platform.Exp_iozone.small_file_max_overhead points)

(* ---------- Exitless virtio rings ---------- *)

(* Byzantine-host-tolerant exitless I/O: a real-guest micro comparison
   (MMIO doorbells per 1k requests, exitful vs ring), the event-priced
   iozone/redis deltas with the confidential arm switched to the ring
   path, and the ring-poison sweep summary. Emits BENCH_exitless.json
   and gates on the ring eliminating at least 90% of the virtio kicks
   and on every poison vector being blocked. *)
let bench_exitless () =
  Metrics.Table.section "Exitless virtio rings — doorbells eliminated";
  let len = 256 in
  (* Exitful arm: every request is an MMIO kick plus a status read. *)
  let requests = 40 in
  let tb_f = Platform.Testbed.create () in
  let prog_f =
    List.concat
      (List.init requests (fun i ->
           Guest.Gprog.blk_write ~sector:i ~len ~byte:'x'))
    @ Guest.Gprog.shutdown
  in
  let h_f = Platform.Testbed.cvm tb_f prog_f in
  gate_shutdown "exitful arm"
    (Hypervisor.Kvm.run_cvm_to_completion tb_f.Platform.Testbed.kvm h_f
       ~hart:0 ~quantum:Platform.Testbed.quantum_cycles ~max_slices:400);
  let exitful_exits =
    Hypervisor.Kvm.mmio_exits_serviced tb_f.Platform.Testbed.kvm
  in
  (* Exitless arm: batches published with plain stores; the host drains
     the ring at its timer beat and publishes the used index once per
     batch. *)
  let batch = 8 in
  let batches = requests / batch in
  let tb_l = Platform.Testbed.create () in
  let prog_l =
    List.concat
      (List.init batches (fun b ->
           List.concat
             (List.init batch (fun j ->
                  let seq = (b * batch) + j in
                  Guest.Gprog.ring_blk_write ~seq ~sector:seq ~len ~byte:'y'
                    ~slot:(seq mod 16)))
           @ Guest.Gprog.ring_wait_used ~target:((b + 1) * batch)))
    @ Guest.Gprog.shutdown
  in
  let h_l = Platform.Testbed.cvm tb_l prog_l in
  (match Hypervisor.Kvm.enable_exitless_io tb_l.Platform.Testbed.kvm h_l with
  | Ok _ -> ()
  | Error e -> failwith ("bench_exitless: " ^ e));
  let outcome_l =
    Hypervisor.Kvm.run_cvm_to_completion tb_l.Platform.Testbed.kvm h_l
      ~hart:0 ~quantum:100_000 ~max_slices:1000
  in
  gate_shutdown "exitless arm" outcome_l;
  let exitless_exits =
    Hypervisor.Kvm.mmio_exits_serviced tb_l.Platform.Testbed.kvm
  in
  let io_counter name =
    Metrics.Registry.counter
      ~scope:(Metrics.Registry.Cvm (Hypervisor.Kvm.cvm_id h_l))
      (Zion.Monitor.registry tb_l.Platform.Testbed.monitor)
      ("sm.io." ^ name)
  in
  let suppressed = io_counter "kicks_suppressed" in
  let notifications =
    match Hypervisor.Kvm.exitless_host tb_l.Platform.Testbed.kvm h_l with
    | Some host -> Hypervisor.Virtio_ring.notifications host
    | None -> 0
  in
  let per_1k exits = float_of_int exits /. float_of_int requests *. 1000. in
  let reduction =
    (per_1k exitful_exits -. per_1k exitless_exits)
    /. per_1k exitful_exits *. 100.
  in
  Metrics.Table.print
    ~header:
      [ "arm"; "requests"; "MMIO exits"; "exits / 1k req";
        "used publishes" ]
    [
      [ "exitful kicks"; string_of_int requests; string_of_int exitful_exits;
        fixed 0 (per_1k exitful_exits); "-" ];
      [ "exitless ring"; string_of_int requests;
        string_of_int exitless_exits; fixed 0 (per_1k exitless_exits);
        string_of_int notifications ];
    ];
  Printf.printf
    "world switches eliminated: %.1f%% (%d kicks suppressed, %d used-index \
     publishes for %d requests)\n"
    reduction suppressed notifications requests;
  (* Macro deltas: the CVM arms of the Figure 3 and 4 runs, exitful
     kicks against the ring path. *)
  let mean f xs = Metrics.Stats.mean (Array.of_list (List.map f xs)) in
  let io_points = Lazy.force iozone_points in
  let io_f = mean (fun p -> p.Platform.Exp_iozone.cvm_mb_s) io_points in
  let io_l =
    mean (fun p -> p.Platform.Exp_iozone.cvm_exitless_mb_s) io_points
  in
  let gain_pct = (io_l -. io_f) /. io_f *. 100. in
  let redis = Lazy.force redis_rows in
  let drop_f = mean (fun r -> r.Platform.Exp_redis.throughput_drop_pct) redis in
  let drop_l =
    mean (fun r -> r.Platform.Exp_redis.exitless_throughput_drop_pct) redis
  in
  Printf.printf
    "iozone CVM mean: %.2f -> %.2f MB/s (+%.2f%%); redis CVM throughput \
     drop: %.2f%% -> %.2f%%\n"
    io_f io_l gain_pct drop_f drop_l;
  (* Ring-poison sweep: the attack suite's ring vectors, each against a
     fresh stack. *)
  let vectors = Platform.Attacks.suite [ Ring ] in
  let blocked = ref 0 in
  List.iter
    (fun (name, outcome) ->
      match outcome with
      | Platform.Attacks.Blocked why ->
          incr blocked;
          Printf.printf "  poison %-17s blocked: %s\n" name why
      | Platform.Attacks.Leaked why ->
          Printf.printf "  poison %-17s LEAKED: %s\n" name why)
    vectors;
  write_result "BENCH_exitless.json"
    (Obj
       [
         ( "micro",
           Obj
             [
               ("requests", num requests);
               ("exitful_mmio_exits", num exitful_exits);
               ("exitless_mmio_exits", num exitless_exits);
               ("exitful_exits_per_1k", Num (per_1k exitful_exits));
               ("exitless_exits_per_1k", Num (per_1k exitless_exits));
               ("kick_reduction_pct", Num reduction);
               ("kicks_suppressed", num suppressed);
               ("used_publishes", num notifications);
               ("completed", Bool (outcome_l = Hypervisor.Kvm.C_shutdown));
               ("cal_rejections", num (io_counter "cal_rejections"));
               ("fallbacks", num (io_counter "fallbacks"));
             ] );
         ( "iozone",
           Obj
             [
               ("cvm_mean_mb_s_exitful", Num io_f);
               ("cvm_mean_mb_s_exitless", Num io_l);
               ("gain_pct", Num gain_pct);
             ] );
         ( "redis",
           Obj
             [
               ("throughput_drop_pct_exitful", Num drop_f);
               ("throughput_drop_pct_exitless", Num drop_l);
             ] );
         ( "poison_sweep",
           Obj
             [
               ("vectors", num (List.length vectors));
               ("blocked", num !blocked);
             ] );
       ]);
  gate "exitless kick reduction" (reduction >= 90.)
    (Printf.sprintf "%.1f%% of kicks eliminated (< 90%%)" reduction);
  gate "ring poison sweep"
    (!blocked = List.length vectors)
    (Printf.sprintf "%d of %d vectors blocked" !blocked (List.length vectors))

(* ---------- Ablations ---------- *)

(* ---------- attested inter-CVM channels: RTT + bandwidth ---------- *)

(* Two CVMs ping-pong a message [rounds] times, once over an attested
   SM-mediated channel (the ring page is mapped into both private
   halves; bytes move with two chan ecalls and zero host involvement)
   and once over the host-bounce baseline (each side publishes into its
   own shared-window slot and the host polls, copies between the two
   windows, and republishes at its service beat — the polling variant,
   i.e. the *cheapest* host-bounce there is, with no doorbell
   switches). Both arms pace themselves with seq spins and run under
   the same run-slice alternation, so the beat structure is identical;
   the arms differ exactly by who moves the bytes and how many beats a
   hop needs. Emits BENCH_channel.json and gates on the channel RTT
   being strictly below the bounce baseline's. *)
let bench_channel () =
  Metrics.Table.section
    "Attested inter-CVM channels — ping-pong RTT and bandwidth";
  let rounds = if quick then 6 else 12 in
  let drive tb ha hb ~slice ~beat =
    let kvm = tb.Platform.Testbed.kvm in
    let done_a = ref false and done_b = ref false in
    let beats = ref 0 in
    while (not (!done_a && !done_b)) && !beats < 4000 do
      incr beats;
      (if not !done_a then
         match Hypervisor.Kvm.run_cvm kvm ha ~hart:0 ~max_steps:slice with
         | Hypervisor.Kvm.C_shutdown -> done_a := true
         | Hypervisor.Kvm.C_error e -> failwith ("bench_channel A: " ^ e)
         | _ -> ());
      (if not !done_b then
         match Hypervisor.Kvm.run_cvm kvm hb ~hart:0 ~max_steps:slice with
         | Hypervisor.Kvm.C_shutdown -> done_b := true
         | Hypervisor.Kvm.C_error e -> failwith ("bench_channel B: " ^ e)
         | _ -> ());
      beat ()
    done;
    if not (!done_a && !done_b) then
      failwith "bench_channel: ping-pong did not converge"
  in
  let slice_for len = (4 * len) + 2500 in
  let chan_arm ~len =
    let tb = Platform.Testbed.create () in
    let slot = Zion.Layout.chan_slot_gpa 1 in
    let ab_seq = slot in
    let ba_seq = Int64.add slot (Int64.of_int Zion.Layout.chan_dir_off) in
    let prog_a =
      List.concat
        (List.init rounds (fun r ->
             Guest.Gprog.chan_send_fill ~chan:1 ~byte:'p' ~len
             @ Guest.Gprog.wait_u64_ge ~gpa:ba_seq ~target:(r + 1)
             @ Guest.Gprog.chan_recv_quiet ~chan:1))
      @ Guest.Gprog.shutdown
    in
    let prog_b =
      List.concat
        (List.init rounds (fun r ->
             Guest.Gprog.wait_u64_ge ~gpa:ab_seq ~target:(r + 1)
             @ Guest.Gprog.chan_recv_quiet ~chan:1
             @ Guest.Gprog.chan_send_fill ~chan:1 ~byte:'q' ~len))
      @ Guest.Gprog.shutdown
    in
    let ha = Platform.Testbed.cvm tb prog_a in
    let hb = Platform.Testbed.cvm tb prog_b in
    (match
       Hypervisor.Kvm.connect_channel tb.Platform.Testbed.kvm ha hb
         ~nonce_a:"bench-rtt-a" ~nonce_b:"bench-rtt-b"
     with
    | Ok 1 -> ()
    | Ok ch ->
        failwith (Printf.sprintf "bench_channel: unexpected chan id %d" ch)
    | Error e -> failwith ("bench_channel: " ^ e));
    let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
    let mark = Metrics.Ledger.mark ledger in
    drive tb ha hb ~slice:(slice_for len) ~beat:(fun () -> ());
    Metrics.Ledger.since ledger mark
  in
  let bounce_arm ~len =
    let tb = Platform.Testbed.create () in
    let out_slot = Guest.Swiotlb.slot_gpa 8
    and in_slot = Guest.Swiotlb.slot_gpa 9 in
    let priv_buf = 0x205000L in
    let publish r =
      Guest.Gprog.fill_bytes ~gpa:(Int64.add out_slot 16L) ~byte:'p' ~len
      @ Guest.Gprog.store_u64 ~gpa:(Int64.add out_slot 8L) (Int64.of_int len)
      @ Guest.Gprog.store_u64 ~gpa:out_slot (Int64.of_int (r + 1))
    in
    let consume r =
      Guest.Gprog.wait_u64_ge ~gpa:in_slot ~target:(r + 1)
      @ Guest.Gprog.copy_words ~from_gpa:(Int64.add in_slot 16L)
          ~to_gpa:priv_buf ~len
    in
    let prog_a =
      List.concat (List.init rounds (fun r -> publish r @ consume r))
      @ Guest.Gprog.shutdown
    in
    let prog_b =
      List.concat (List.init rounds (fun r -> consume r @ publish r))
      @ Guest.Gprog.shutdown
    in
    let ha = Platform.Testbed.cvm tb prog_a in
    let hb = Platform.Testbed.cvm tb prog_b in
    let bus = tb.Platform.Testbed.machine.Riscv.Machine.bus in
    let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
    let cost = tb.Platform.Testbed.machine.Riscv.Machine.cost in
    let pa map gpa =
      match Hypervisor.Shared_map.lookup map ~gpa with
      | Some pa -> pa
      | None -> failwith "bench_channel: shared slot unmapped"
    in
    let map_a = Hypervisor.Kvm.cvm_shared_map ha in
    let map_b = Hypervisor.Kvm.cvm_shared_map hb in
    let a_out = pa map_a out_slot and a_in = pa map_a in_slot in
    let b_out = pa map_b out_slot and b_in = pa map_b in_slot in
    let delivered_ab = ref 0L and delivered_ba = ref 0L in
    let bounce ~src ~dst delivered =
      let seq = Riscv.Bus.read bus src 8 in
      if seq > !delivered then begin
        let n = Int64.to_int (Riscv.Bus.read bus (Int64.add src 8L) 8) in
        let payload = Riscv.Bus.read_bytes bus (Int64.add src 16L) n in
        Riscv.Bus.write_bytes bus (Int64.add dst 16L) payload;
        Riscv.Bus.write bus (Int64.add dst 8L) 8 (Int64.of_int n);
        Riscv.Bus.write bus dst 8 seq;
        delivered := seq;
        Metrics.Ledger.charge ledger "host_bounce"
          (cost.Riscv.Cost.ring_host_service
          + Riscv.Cost.word_copy cost n
          + cost.Riscv.Cost.ring_notify)
      end;
      Metrics.Ledger.charge ledger "host_bounce" cost.Riscv.Cost.ring_host_poll
    in
    let mark = Metrics.Ledger.mark ledger in
    drive tb ha hb ~slice:(slice_for len)
      ~beat:(fun () ->
        bounce ~src:a_out ~dst:b_in delivered_ab;
        bounce ~src:b_out ~dst:a_in delivered_ba);
    Metrics.Ledger.since ledger mark
  in
  let rtt_len = 64 in
  let bw_len = Zion.Layout.chan_max_msg in
  let chan_rtt = float_of_int (chan_arm ~len:rtt_len) /. float_of_int rounds in
  let bounce_rtt =
    float_of_int (bounce_arm ~len:rtt_len) /. float_of_int rounds
  in
  let chan_bw_cycles = chan_arm ~len:bw_len in
  let bounce_bw_cycles = bounce_arm ~len:bw_len in
  let bytes = 2 * bw_len * rounds in
  (* 100 MHz clock: MB/s = bytes / (cycles / 1e8) / 1e6 *)
  let mb_s cycles = float_of_int bytes *. 100. /. float_of_int cycles in
  let chan_mb = mb_s chan_bw_cycles and bounce_mb = mb_s bounce_bw_cycles in
  Metrics.Table.print
    ~header:[ "arm"; "RTT (cycles)"; "bandwidth (MB/s)" ]
    [
      [ "attested channel"; fixed 0 chan_rtt; fixed 2 chan_mb ];
      [ "host bounce"; fixed 0 bounce_rtt; fixed 2 bounce_mb ];
    ];
  let reduction_pct = (bounce_rtt -. chan_rtt) /. bounce_rtt *. 100. in
  Printf.printf
    "channel RTT %.0f vs host-bounce %.0f cycles (%.1f%% lower); bandwidth \
     %.2f vs %.2f MB/s\n"
    chan_rtt bounce_rtt reduction_pct chan_mb bounce_mb;
  let arm rtt mb =
    Metrics.Export.Obj [ ("rtt_cycles", Num rtt); ("bandwidth_mb_s", Num mb) ]
  in
  write_result "BENCH_channel.json"
    (Obj
       [
         ("rounds", num rounds);
         ("rtt_msg_bytes", num rtt_len);
         ("bw_msg_bytes", num bw_len);
         ("channel", arm chan_rtt chan_mb);
         ("host_bounce", arm bounce_rtt bounce_mb);
         ("rtt_reduction_pct", Num reduction_pct);
       ]);
  gate "channel RTT below host bounce" (chan_rtt < bounce_rtt)
    (Printf.sprintf "%.0f vs %.0f cycles" chan_rtt bounce_rtt)

let bench_ablations () =
  Metrics.Table.section "Ablation — secure-memory block size";
  Metrics.Table.print
    ~header:[ "block"; "stage-1 faults %"; "avg fault cycles" ]
    (List.map
       (fun (p : Platform.Exp_ablation.block_size_point) ->
         [
           Printf.sprintf "%d KiB" p.Platform.Exp_ablation.block_kb;
           fixed 1 p.Platform.Exp_ablation.stage1_pct;
           fixed 0 p.Platform.Exp_ablation.avg_fault_cycles;
         ])
       (Platform.Exp_ablation.block_size_sweep ()));

  Metrics.Table.section "Ablation — vCPU page cache";
  let c = Platform.Exp_ablation.page_cache_ablation () in
  Metrics.Table.print
    ~header:[ "configuration"; "avg fault cycles" ]
    [
      [ "with per-vCPU page cache";
        fixed 0 c.Platform.Exp_ablation.with_cache_avg ];
      [ "without (every fault grabs the list)";
        fixed 0 c.Platform.Exp_ablation.without_cache_avg ];
      [ "penalty"; pct c.Platform.Exp_ablation.penalty_pct ];
    ];

  Metrics.Table.section "Ablation — hardened entry (shared-subtree sweep)";
  Metrics.Table.print
    ~header:[ "mapped shared pages"; "CVM entry cycles" ]
    (List.map
       (fun (p : Platform.Exp_ablation.hardened_point) ->
         [
           string_of_int p.Platform.Exp_ablation.shared_pages;
           string_of_int p.Platform.Exp_ablation.entry_cycles;
         ])
       (Platform.Exp_ablation.hardened_entry_costs ()));

  Metrics.Table.section "Ablation — concurrent-CVM scalability";
  let s = Platform.Exp_ablation.scalability () in
  Metrics.Table.print
    ~header:[ "design"; "concurrent confidential VMs" ]
    [
      [ "CURE/VirTEE-style (PMP region each)";
        string_of_int s.Platform.Exp_ablation.cure_style_limit ];
      [ "ZION (PMP pool + paging), demonstrated";
        string_of_int s.Platform.Exp_ablation.zion_cvms_run ];
    ]

(* ---------- calibration sensitivity ---------- *)

let bench_sensitivity () =
  Metrics.Table.section
    "Calibration sensitivity — relative claims under scaled cost models";
  (* Scale every calibrated constant and check the paper's headline
     ratios: they must be (nearly) invariant, because they are produced
     by path structure, not by the constants. *)
  let ratios scale =
    let cost = Riscv.Cost.scaled scale in
    let mk config =
      let machine = Riscv.Machine.create ~cost ~dram_size:0x10000000L () in
      Zion.Monitor.create ~config machine
    in
    let short = mk Zion.Monitor.default_config in
    let long = mk { Zion.Monitor.default_config with long_path = true } in
    let unshared = mk { Zion.Monitor.default_config with shared_vcpu = false } in
    let e_short =
      float_of_int (Zion.Monitor.path_cost short Zion.Monitor.Entry_plain)
    in
    let e_long =
      float_of_int (Zion.Monitor.path_cost long Zion.Monitor.Entry_plain)
    in
    let e_sh =
      float_of_int (Zion.Monitor.path_cost short Zion.Monitor.Entry_with_mmio)
    in
    let e_unsh =
      float_of_int
        (Zion.Monitor.path_cost unshared Zion.Monitor.Entry_with_mmio)
    in
    ( (e_long -. e_short) /. e_long *. 100.,
      (e_unsh -. e_sh) /. e_unsh *. 100. )
  in
  Metrics.Table.print
    ~header:
      [ "cost scale"; "short-path entry gain %"; "shared-vCPU entry gain %" ]
    (List.map
       (fun scale ->
         let a, b = ratios scale in
         [ fixed 2 scale; fixed 2 a; fixed 2 b ])
       [ 0.5; 1.0; 2.0; 4.0 ])

(* ---------- Bechamel: wall-clock microbenchmarks ---------- *)

let bench_bechamel () =
  Metrics.Table.section
    "Simulator microbenchmarks (Bechamel, host wall-clock ns/op)";
  let open Bechamel in
  (* Pre-built stages so per-run work is the operation itself. *)
  let tb = Platform.Testbed.create () in
  let handle = Platform.Testbed.cvm tb [ Riscv.Decode.Jal (0, 0L) ] in
  Platform.Testbed.enable_timer tb ~hart:0;
  let switch_roundtrip () =
    Platform.Testbed.set_quantum tb ~hart:0 5_000;
    match
      Hypervisor.Kvm.run_cvm tb.Platform.Testbed.kvm handle ~hart:0
        ~max_steps:1_000_000
    with
    | Hypervisor.Kvm.C_timer -> ()
    | _ -> failwith "bechamel: expected timer exit"
  in
  let redis = Workloads.Redis.create () in
  let redis_req = Workloads.Resp.encode_command [ "SET"; "k"; "v" ] in
  let sha_buf = String.make 4096 'x' in
  let tests =
    Test.make_grouped ~name:"zion"
      [
        Test.make ~name:"cvm-switch-roundtrip"
          (Staged.stage switch_roundtrip);
        Test.make ~name:"redis-handle-set"
          (Staged.stage (fun () -> ignore (Workloads.Redis.handle redis redis_req)));
        Test.make ~name:"sha256-4KiB"
          (Staged.stage (fun () -> ignore (Crypto.Sha256.digest sha_buf)));
        Test.make ~name:"sv39-walk"
          (Staged.stage
             (let mem = Riscv.Physmem.create ~size:0x100000L in
              Riscv.Physmem.write_u64 mem 0x1000L
                (Riscv.Pte.make_pointer ~ppn:2L);
              Riscv.Physmem.write_u64 mem 0x2000L
                (Riscv.Pte.make_pointer ~ppn:3L);
              Riscv.Physmem.write_u64 mem 0x3000L
                (Riscv.Pte.make ~ppn:7L ~r:true ~valid:true ());
              let env =
                {
                  Riscv.Sv39.read_pte =
                    (fun pa ->
                      if Riscv.Xword.ult pa 0x100000L then
                        Some (Riscv.Physmem.read_u64 mem pa)
                      else None);
                  sum = false;
                  mxr = false;
                  user = false;
                }
              in
              fun () ->
                ignore (Riscv.Sv39.walk env ~root:0x1000L Riscv.Sv39.Load 0L)));
      ]
  in
  let cfg =
    Benchmark.cfg ~limit:300
      ~quota:(Time.second (if quick then 0.1 else 0.4))
      ~kde:None ()
  in
  let raw = Benchmark.all cfg [ Toolkit.Instance.monotonic_clock ] tests in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true
      ~predictors:[| Measure.run |]
  in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name result ->
      match Analyze.OLS.estimates result with
      | Some [ est ] -> rows := (name, est) :: !rows
      | _ -> ())
    results;
  (* Which SHA-256 kernel CPUID picked, beside the row it sets. *)
  let note n =
    if n = "zion/sha256-4KiB" then
      "kernel: " ^ Crypto.Sha256.Kernel.(name active)
    else ""
  in
  Metrics.Table.print
    ~header:[ "operation"; "ns/op (host)"; "note" ]
    (List.map
       (fun (n, v) -> [ n; fixed 1 v; note n ])
       (List.sort compare !rows))

(* ---------- post-run security audit ---------- *)

(* A platform-wide invariant sweep on a freshly exercised stack: the
   harness must leave no isolation property broken. *)
let bench_audit () =
  Metrics.Table.section "Post-run security audit";
  let tb = Platform.Testbed.create () in
  let h = Platform.Testbed.cvm tb (Guest.Gprog.hello "audit") in
  gate_shutdown "audit guest"
    (Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm h ~hart:0
       ~quantum:Platform.Testbed.quantum_cycles ~max_slices:50);
  let result = Zion.Monitor.audit tb.Platform.Testbed.monitor in
  (match result with
  | Ok n -> Printf.printf "audit: %d facts checked, no violations\n" n
  | Error findings -> List.iter print_endline findings);
  gate "post-run audit" (Result.is_ok result) "invariant violations above"

let sections =
  [
    ("switch", bench_switches);
    ("retention", bench_tlb_retention);
    ("fault", bench_faults);
    ("observability", bench_observability);
    ("profile", bench_profile);
    ("rv8", bench_rv8);
    ("coremark", bench_coremark);
    ("sim", bench_sim);
    ("redis", bench_redis);
    ("iozone", bench_iozone);
    ("exitless", bench_exitless);
    ("channel", bench_channel);
    ("ablations", bench_ablations);
    ("sensitivity", bench_sensitivity);
    ("bechamel", bench_bechamel);
    ("audit", bench_audit);
  ]

let () =
  let chosen =
    List.filter (fun a -> a <> "--quick") (List.tl (Array.to_list Sys.argv))
  in
  (match List.filter (fun a -> not (List.mem_assoc a sections)) chosen with
  | [] -> ()
  | unknown ->
      Printf.eprintf "unknown section: %s\nvalid sections: %s\n"
        (String.concat " " unknown)
        (String.concat " " (List.map fst sections));
      exit 2);
  print_endline "ZION paper-reproduction benchmark harness";
  print_endline
    (if quick then "(quick mode: shorter simulator, channel and Bechamel runs)"
     else "(full mode; pass --quick for a fast run)");
  List.iter
    (fun (name, run) -> if chosen = [] || List.mem name chosen then run ())
    sections;
  match List.rev !failed_gates with
  | [] -> print_endline "\nAll selected sections completed; every gate passed."
  | failed ->
      Printf.printf "\n%d gate(s) FAILED: %s\n" (List.length failed)
        (String.concat ", " failed);
      exit 1
