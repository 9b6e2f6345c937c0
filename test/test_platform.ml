(* Tests for the experiment layer: the calibrated paths must land on the
   paper's numbers, and the macro event model must produce the paper's
   comparative shapes. *)

let switch_tests =
  [
    Alcotest.test_case "MMIO switches hit §V.B.1 calibration" `Slow
      (fun () ->
        let s =
          Platform.Exp_switch.measure_mmio_switches ~shared_vcpu:true
            ~iterations:20
        in
        Alcotest.(check (float 0.5))
          "entry" 4191. s.Platform.Exp_switch.entry_mean;
        Alcotest.(check (float 0.5))
          "exit" 2524. s.Platform.Exp_switch.exit_mean;
        Alcotest.(check int) "samples" 20 s.Platform.Exp_switch.samples;
        let u =
          Platform.Exp_switch.measure_mmio_switches ~shared_vcpu:false
            ~iterations:20
        in
        Alcotest.(check (float 10.))
          "entry unshared (±0.2%)" 5293. u.Platform.Exp_switch.entry_mean;
        Alcotest.(check (float 0.5))
          "exit unshared" 3267. u.Platform.Exp_switch.exit_mean);
    Alcotest.test_case "timer switches hit §V.B.2 calibration" `Slow
      (fun () ->
        let s =
          (Platform.Exp_switch.measure_timer_switches
             ~config:{ Zion.Monitor.default_config with long_path = false }
             ~iterations:20)
            .Platform.Exp_switch.sw
        in
        Alcotest.(check (float 0.5))
          "short entry" 4028. s.Platform.Exp_switch.entry_mean;
        Alcotest.(check (float 0.5))
          "short exit" 2406. s.Platform.Exp_switch.exit_mean;
        let l =
          (Platform.Exp_switch.measure_timer_switches
             ~config:{ Zion.Monitor.default_config with long_path = true }
             ~iterations:20)
            .Platform.Exp_switch.sw
        in
        Alcotest.(check (float 0.5))
          "long entry" 7282. l.Platform.Exp_switch.entry_mean;
        Alcotest.(check (float 0.5))
          "long exit" 5384. l.Platform.Exp_switch.exit_mean);
  ]

let fault_tests =
  [
    Alcotest.test_case "fault experiment reproduces §V.C" `Slow (fun () ->
        let r = Platform.Exp_fault.run () in
        Alcotest.(check (float 0.5))
          "normal" 39607. r.Platform.Exp_fault.normal_mean;
        Alcotest.(check (float 0.5))
          "stage1" 31103. r.Platform.Exp_fault.stage1_mean;
        Alcotest.(check (float 0.5))
          "stage2" 34729. r.Platform.Exp_fault.stage2_mean;
        Alcotest.(check (float 0.5))
          "stage3" 57152. r.Platform.Exp_fault.stage3_mean;
        Alcotest.(check bool)
          "stage3 sampled" true
          (r.Platform.Exp_fault.stage3_count > 0);
        (* weighted mean just above stage 1, like the paper's 31,449 *)
        Alcotest.(check bool)
          "average near stage1" true
          (r.Platform.Exp_fault.cvm_weighted_mean > 31103.
          && r.Platform.Exp_fault.cvm_weighted_mean < 32500.));
  ]

let macro_tests =
  [
    Alcotest.test_case "CVM ticks cost more than normal ticks" `Quick
      (fun () ->
        let tb = Platform.Testbed.create () in
        let locality =
          { Workloads.Opcount.hot_pages = 16; hot_dlines = 100;
            hot_ilines = 50 }
        in
        let work =
          { (Workloads.Opcount.zero ()) with Workloads.Opcount.alu =
              100_000_000 }
        in
        let n =
          Platform.Macro_vm.create ~kind:Platform.Macro_vm.Normal
            ~monitor:tb.Platform.Testbed.monitor ~locality ()
        in
        let c =
          Platform.Macro_vm.create
            ~kind:Platform.Macro_vm.(Confidential Exitful)
            ~monitor:tb.Platform.Testbed.monitor ~locality ()
        in
        Platform.Macro_vm.add_ops n work;
        Platform.Macro_vm.add_ops c work;
        let tn = Platform.Macro_vm.total_cycles n in
        let tc = Platform.Macro_vm.total_cycles c in
        Alcotest.(check bool) "cvm slower" true (tc > tn);
        (* pure-CPU overhead must stay in the paper's <5% band *)
        let overhead = (tc -. tn) /. tn *. 100. in
        Alcotest.(check bool)
          "within 5%" true
          (overhead > 0.5 && overhead < 5.));
    Alcotest.test_case "blk requests price device time and copies" `Quick
      (fun () ->
        let tb = Platform.Testbed.create () in
        let locality =
          { Workloads.Opcount.hot_pages = 1; hot_dlines = 1; hot_ilines = 1 }
        in
        let mk kind =
          Platform.Macro_vm.create ~kind ~monitor:tb.Platform.Testbed.monitor
            ~locality ()
        in
        let n = mk Platform.Macro_vm.Normal in
        Platform.Macro_vm.add_blk_request n ~bytes:4096;
        let c = mk Platform.Macro_vm.(Confidential Exitful) in
        Platform.Macro_vm.add_blk_request c ~bytes:4096;
        let tn = Platform.Macro_vm.total_cycles n in
        let tc = Platform.Macro_vm.total_cycles c in
        Alcotest.(check bool)
          "both pay the device" true
          (tn > float_of_int (Platform.Macro_vm.blk_service_cycles ~bytes:4096));
        Alcotest.(check bool)
          "cvm adds bounce + switches" true
          (tc -. tn
          > float_of_int (Riscv.Cost.word_copy Riscv.Cost.default 4096)));
    Alcotest.test_case "breakdown sums near the total" `Quick (fun () ->
        let tb = Platform.Testbed.create () in
        let locality =
          { Workloads.Opcount.hot_pages = 8; hot_dlines = 8; hot_ilines = 8 }
        in
        let vm =
          Platform.Macro_vm.create
            ~kind:Platform.Macro_vm.(Confidential Exitful)
            ~monitor:tb.Platform.Testbed.monitor ~locality ()
        in
        Platform.Macro_vm.add_cycles vm 10_000_000;
        Platform.Macro_vm.add_blk_request vm ~bytes:65536;
        Platform.Macro_vm.add_faults vm ~pages:10;
        let total = Platform.Macro_vm.total_cycles vm in
        let parts = Platform.Macro_vm.breakdown vm in
        let sum =
          List.fold_left
            (fun acc (name, v) ->
              if name = "refill(io)" then acc else acc +. v)
            0. parts
        in
        Alcotest.(check bool)
          "sum ~ total" true
          (Float.abs (sum -. total) /. total < 0.01));
  ]

let table1_tests =
  [
    Alcotest.test_case "Table I reproduces the paper's shape" `Slow
      (fun () ->
        let rows = Platform.Exp_rv8.run_table1 () in
        Alcotest.(check int) "eight kernels" 8 (List.length rows);
        List.iter
          (fun (r : Platform.Exp_rv8.row) ->
            (* every kernel within 3% of its Table I baseline *)
            let base_err =
              Float.abs
                (r.Platform.Exp_rv8.normal_gcycles
                /. (List.assoc r.Platform.Exp_rv8.name
                      (List.map
                         (fun (n, b, _) -> (n, b))
                         Platform.Exp_rv8.paper_table1))
                -. 1.)
            in
            Alcotest.(check bool)
              (r.Platform.Exp_rv8.name ^ " baseline close")
              true (base_err < 0.03);
            (* overhead within 0.3 points of the paper's column *)
            Alcotest.(check bool)
              (r.Platform.Exp_rv8.name ^ " overhead close")
              true
              (Float.abs
                 (r.Platform.Exp_rv8.overhead_pct
                 -. r.Platform.Exp_rv8.paper_overhead_pct)
              < 0.3))
          rows;
        let avg = Platform.Exp_rv8.average_overhead rows in
        Alcotest.(check bool)
          "average in band" true
          (avg > 2.3 && avg < 2.9));
    Alcotest.test_case "CoreMark drop in the paper band" `Slow (fun () ->
        let r = Platform.Exp_rv8.run_coremark () in
        Alcotest.(check bool) "crc" true r.Platform.Exp_rv8.crc_ok;
        Alcotest.(check bool)
          "drop 2-3.5%" true
          (r.Platform.Exp_rv8.drop_pct > 2.0
          && r.Platform.Exp_rv8.drop_pct < 3.5));
  ]

let redis_iozone_tests =
  [
    Alcotest.test_case "Redis deltas track Figure 3" `Slow (fun () ->
        let rows = Platform.Exp_redis.run ~rounds:1 ~requests:500 () in
        Alcotest.(check int) "nine ops" 9 (List.length rows);
        let drop = Platform.Exp_redis.average_throughput_drop rows in
        let lat = Platform.Exp_redis.average_latency_increase rows in
        Alcotest.(check bool) "drop 4-7%" true (drop > 4. && drop < 7.);
        Alcotest.(check bool) "latency 3-6%" true (lat > 3. && lat < 6.);
        List.iter
          (fun (r : Platform.Exp_redis.row) ->
            Alcotest.(check bool)
              (r.Platform.Exp_redis.op ^ ": the ring drops less")
              true
              (r.Platform.Exp_redis.exitless_throughput_drop_pct
              < r.Platform.Exp_redis.throughput_drop_pct))
          rows);
    Alcotest.test_case "IOZone overheads track Figure 4" `Slow (fun () ->
        let points = Platform.Exp_iozone.run () in
        Alcotest.(check bool)
          "small files under 5%" true
          (Platform.Exp_iozone.small_file_max_overhead points < 5.);
        let mx = Platform.Exp_iozone.max_overhead points in
        Alcotest.(check bool)
          "max in the 15-25% band" true
          (mx > 15. && mx < 25.);
        (* overhead grows with file size at fixed record size *)
        let writes_8k =
          List.filter
            (fun p ->
              p.Platform.Exp_iozone.op = Workloads.Iozone.Write
              && p.Platform.Exp_iozone.record_kb = 8)
            points
        in
        let sorted =
          List.sort
            (fun a b ->
              compare a.Platform.Exp_iozone.file_kb
                b.Platform.Exp_iozone.file_kb)
            writes_8k
        in
        let overheads =
          List.map (fun p -> p.Platform.Exp_iozone.overhead_pct) sorted
        in
        let last = List.nth overheads (List.length overheads - 1) in
        let first = List.hd overheads in
        Alcotest.(check bool) "monotone-ish growth" true (last > first);
        (* the ring only cheapens device requests: never slower, and
           faster once the file outgrows the page cache *)
        List.iter
          (fun (p : Platform.Exp_iozone.point) ->
            let l = p.Platform.Exp_iozone.cvm_exitless_mb_s
            and c = p.Platform.Exp_iozone.cvm_mb_s in
            Alcotest.(check bool) "the ring is never slower" true (l >= c);
            if p.Platform.Exp_iozone.file_kb > 131072 then
              Alcotest.(check bool) "the ring is faster" true (l > c))
          points);
    Alcotest.test_case "Figure 3's pops pop what was pushed" `Quick
      (fun () ->
        (* redis-benchmark runs its tests in order on one server: LPOP
           and RPOP find the list LPUSH and RPUSH built, and GET finds
           the keys SET wrote. *)
        let rows = Platform.Exp_redis.run ~rounds:1 ~requests:500 () in
        let nils (r : Platform.Exp_redis.row) =
          (r.Platform.Exp_redis.op, r.Platform.Exp_redis.nil_replies)
        in
        Alcotest.(check (list (pair string int)))
          "nil replies per op"
          (List.map (fun (op, _) -> (op, 0)) (List.map nils rows))
          (List.map nils rows));
  ]

let ablation_tests =
  [
    Alcotest.test_case "bigger blocks raise the stage-1 hit rate" `Quick
      (fun () ->
        let sweep = Platform.Exp_ablation.block_size_sweep () in
        let rates =
          List.map (fun p -> p.Platform.Exp_ablation.stage1_pct) sweep
        in
        let rec increasing = function
          | a :: b :: rest -> a <= b && increasing (b :: rest)
          | _ -> true
        in
        Alcotest.(check bool) "monotone" true (increasing rates));
    Alcotest.test_case "page cache ablation shows the stage-2 penalty"
      `Quick (fun () ->
        let c = Platform.Exp_ablation.page_cache_ablation () in
        Alcotest.(check bool)
          "penalty positive" true
          (c.Platform.Exp_ablation.penalty_pct > 5.));
    Alcotest.test_case "hardened entry cost grows with shared pages" `Slow
      (fun () ->
        let pts = Platform.Exp_ablation.hardened_entry_costs () in
        let cycles =
          List.map (fun p -> p.Platform.Exp_ablation.entry_cycles) pts
        in
        let rec strictly_increasing = function
          | a :: b :: rest -> a < b && strictly_increasing (b :: rest)
          | _ -> true
        in
        Alcotest.(check bool) "increasing" true (strictly_increasing cycles));
    Alcotest.test_case "ZION runs more concurrent CVMs than 13" `Slow
      (fun () ->
        let s = Platform.Exp_ablation.scalability ~cvms:16 () in
        Alcotest.(check int)
          "all 16 ran" 16 s.Platform.Exp_ablation.zion_cvms_run;
        Alcotest.(check bool)
          "beats the region design" true
          (s.Platform.Exp_ablation.zion_cvms_run
          > s.Platform.Exp_ablation.cure_style_limit));
  ]

let suite =
  [
    ("platform.switch", switch_tests);
    ("platform.fault", fault_tests);
    ("platform.macro", macro_tests);
    ("platform.table1", table1_tests);
    ("platform.redis-iozone", redis_iozone_tests);
    ("platform.ablation", ablation_tests);
  ]
