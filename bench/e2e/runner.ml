type result = {
  workload : string;
  seed : int;
  op : string;
  timed_passes : int;
  ops_per_pass : int;
  latency_samples : int;
  attempted : int;
  failed : int;
  failures : string list;
  end_to_end : (string * Summary.t) list;
  per_layer : (string * Summary.t) list;
}

let now = Unix.gettimeofday
let min_passes = 3
let max_passes = 25

type pass = { ops : int; obs : Obs.t; wall : float }

let run_pass prep arm ~traced =
  (* Every pass starts from the same compacted heap, so a major
     collection owed by the previous pass is not charged to this one. *)
  Gc.compact ();
  let obs = Obs.create ~traced () in
  let t0 = now () in
  let ops =
    if traced then Obs.call obs "bench.pass" (fun () -> prep arm obs)
    else prep arm obs
  in
  { ops; obs; wall = now () -. t0 }

let tally p = Obs.tally p.obs

(* Everything simulated a pass produced; identical inputs on a fresh
   testbed must reproduce it exactly. *)
let sim_signature p =
  let t = tally p in
  ( [ p.ops; t.cycles; t.instret; t.tlb_hits; t.tlb_misses; t.entries;
      t.entry_cycles; t.exits; t.exit_cycles; t.faults; t.fault_cycles;
      t.fault_stage2; t.fault_stage3; t.pmp_syncs; t.pmp_sync_skips;
      t.world_toggles; t.world_skips; t.mmio; t.expansions; t.slices;
      t.creates; t.create_cycles; t.destroys; t.destroy_cycles;
      t.ring_notifications; t.ring_rejects; t.blk_bytes ]
    @ Array.to_list t.layer_cycles,
    t.latency )

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" (fun ic ->
      let rec find () =
        match In_channel.input_line ic with
        | Some line when String.starts_with ~prefix:"VmHWM:" line ->
            Scanf.sscanf line "VmHWM: %d kB" (fun kb -> float_of_int kb /. 1024.)
        | Some _ -> find ()
        | None -> failwith "no VmHWM in /proc/self/status"
      in
      find ())

let div a b = if b = 0. then 0. else a /. b
let idiv a b = div (float_of_int a) (float_of_int b)
let exact = Summary.exact
let over passes f = Summary.of_samples (List.map f passes)

(* Host seconds the hypervisor spent running guest slices. *)
let slice_time p =
  snd (Obs.host_time p.obs "hypervisor.run_cvm")
  +. snd (Obs.host_time p.obs "hypervisor.sched_run_on_harts")

let ms_per_call p name =
  let n, s = Obs.host_time p.obs name in
  div (1000. *. s) (float_of_int n)

let end_to_end ~first ~normal ~passes =
  let t = tally first and n = tally normal in
  let per_op = idiv t.cycles first.ops in
  [
    ("sim_cycles_per_op", exact per_op);
    ("sim_latency_p50_cycles", exact (float_of_int (Summary.percentile 50. t.latency)));
    ("sim_latency_p99_cycles", exact (float_of_int (Summary.percentile 99. t.latency)));
    ("cvm_cycle_ratio", exact (div per_op (idiv n.cycles normal.ops)));
    ("setup_s", Summary.of_samples (List.concat_map (fun p -> (tally p).setups) passes));
    ("peak_rss_mb", exact (peak_rss_mb ()));
  ]

let per_layer ~first ~passes ~all =
  let t = tally first and ops = first.ops in
  let per_op n = exact (idiv n ops) in
  let mean sum n = exact (idiv sum n) in
  let share part rest = exact (idiv part (part + rest)) in
  let layer l = per_op t.layer_cycles.(Layers.index l) in
  let host = over passes in
  [
    ("riscv.sim_cycles_per_op", layer Layers.Riscv);
    ("riscv.instret_per_op", per_op t.instret);
    ("riscv.tlb_hit_rate", share t.tlb_hits t.tlb_misses);
    ("riscv.tlb_misses_per_kinstr", exact (1000. *. idiv t.tlb_misses t.instret));
    ( "riscv.host_ns_per_instr",
      host (fun p -> 1e9 *. div (slice_time p) (float_of_int (tally p).instret)) );
    ("zion.sim_cycles_per_op", layer Layers.Zion);
    ("zion.switches_per_op", per_op t.entries);
    ("zion.entry_cycles_mean", mean t.entry_cycles t.entries);
    ("zion.exit_cycles_mean", mean t.exit_cycles t.exits);
    ("zion.faults_per_op", per_op t.faults);
    ("zion.fault_cycles_mean", mean t.fault_cycles t.faults);
    ("zion.fault_stage2_pct", exact (100. *. idiv t.fault_stage2 t.faults));
    ("zion.fault_stage3_count", exact (float_of_int t.fault_stage3));
    ("zion.create_cycles_mean", mean t.create_cycles t.creates);
    ("zion.destroy_cycles_mean", mean t.destroy_cycles t.destroys);
    ("zion.host_ms_per_create", host (fun p -> ms_per_call p "hypervisor.create_cvm_guest"));
    ("zion.host_ms_per_destroy", host (fun p -> ms_per_call p "zion.destroy_cvm"));
    ("zion.pmp_sync_skip_ratio", share t.pmp_sync_skips t.pmp_syncs);
    ("zion.world_toggle_skip_ratio", share t.world_skips t.world_toggles);
    ( "zion.audit_findings",
      exact (float_of_int (List.fold_left (fun a p -> a + (tally p).audit_findings) 0 all)) );
    ("hypervisor.sim_cycles_per_op", layer Layers.Hypervisor);
    ("hypervisor.mmio_exits_per_op", per_op t.mmio);
    ("hypervisor.slices_per_op", per_op t.slices);
    ( "hypervisor.host_us_per_slice",
      host (fun p -> 1e6 *. div (slice_time p) (float_of_int (tally p).slices)) );
    ("hypervisor.ring_notifications_per_op", per_op t.ring_notifications);
    ("hypervisor.ring_host_rejects", exact (float_of_int t.ring_rejects));
    ("hypervisor.blk_bytes_per_op", per_op t.blk_bytes);
    ("hypervisor.expansions", exact (float_of_int t.expansions));
    ( "workloads.host_us_per_request",
      host (fun p -> 1000. *. ms_per_call p "workloads.redis_handle") );
    ("host.ops_per_s", host (fun p -> div (float_of_int p.ops) (tally p).run_s));
    ( "host.guest_mips",
      host (fun p -> div (float_of_int (tally p).instret) (tally p).run_s /. 1e6) );
    ("host.alloc_words_per_op", host (fun p -> div (tally p).minor_words (float_of_int p.ops)));
    ("host.major_gcs_per_pass", host (fun p -> float_of_int (tally p).major_gcs));
  ]

(* The traced pass against the untraced ones: what observing cost, and
   where its host time went. *)
let trace_metrics ~traced ~passes =
  let t = tally traced in
  let per_op p = (tally p).run_s /. float_of_int p.ops in
  let self = Obs.self_times traced.obs in
  [
    ( "metrics.trace_overhead_pct",
      exact (100. *. (div (per_op traced) (Summary.median (List.map per_op passes)) -. 1.)) );
    ("metrics.trace_events_per_op", exact (idiv t.trace_recorded traced.ops));
    ("metrics.trace_dropped", exact (float_of_int t.trace_dropped));
    ("metrics.traced_pass_ms", exact (ms_per_call traced "bench.pass"));
  ]
  @ List.map
      (fun l ->
        (l ^ ".self_ms", exact (1000. *. Option.value ~default:0. (List.assoc_opt l self))))
      Catalog.self_layers

let trace_checks traced =
  let pass_ms = ms_per_call traced "bench.pass" in
  let self_ms =
    1000. *. List.fold_left (fun a (_, s) -> a +. s) 0. (Obs.self_times traced.obs)
  in
  (if Obs.spans_balanced traced.obs then [] else [ "trace spans unbalanced" ])
  @
  if Float.abs (self_ms -. pass_ms) <= 0.01 *. pass_ms then []
  else [ "layer self times do not add up to the traced pass" ]

let run ?chrome (w : Workload.t) ~seed ~seconds ~trace ~scale =
  let full = w.Workload.prepare ~seed ~scale in
  let quarter = w.Workload.prepare ~seed ~scale:(scale /. 4.) in
  (* 1. Warm-up, discarded: it warms the host heap and code only; every
        testbed starts cold anyway. *)
  let warm = run_pass quarter Workload.Cvm ~traced:false in
  (* 2. Timed CVM passes. *)
  let rec timed acc elapsed =
    let n = List.length acc in
    if n >= max_passes || (n >= min_passes && elapsed >= seconds) then
      List.rev acc
    else
      let p = run_pass full Workload.Cvm ~traced:false in
      timed (p :: acc) (elapsed +. p.wall)
  in
  let passes = timed [] 0. in
  (* 3. Normal-VM reference on identical inputs, for simulated cycles. *)
  let normal = run_pass full Workload.Normal ~traced:false in
  (* 4. Traced pass at a quarter size. *)
  let traced =
    if trace then Some (run_pass quarter Workload.Cvm ~traced:true) else None
  in
  let all = (warm :: passes) @ (normal :: Option.to_list traced) in
  let first = List.hd passes in
  let reproduced p = sim_signature p = sim_signature first in
  (* An unclean audit, or a timed pass that did not reproduce the first,
     fails every op of that pass. *)
  let failed_ops p =
    let diverged = List.memq p passes && not (reproduced p) in
    if (tally p).audit_findings > 0 || diverged then p.ops else (tally p).failed
  in
  let attempted = List.fold_left (fun a p -> a + p.ops) 0 all in
  let failures =
    List.concat_map (fun p -> (tally p).failures) all
    @ (if List.for_all reproduced passes then []
       else [ "timed passes did not reproduce the same simulated statistics" ])
    @ Option.fold ~none:[] ~some:trace_checks traced
  in
  Option.iter (fun tp -> Option.iter (Obs.write_chrome tp.obs) chrome) traced;
  {
    workload = w.Workload.name;
    seed;
    op = w.Workload.op;
    timed_passes = List.length passes;
    ops_per_pass = first.ops;
    latency_samples = List.length (tally first).latency;
    attempted;
    failed = min attempted (List.fold_left (fun a p -> a + failed_ops p) 0 all);
    failures = List.sort_uniq compare failures;
    end_to_end = end_to_end ~first ~normal ~passes;
    per_layer =
      per_layer ~first ~passes ~all
      @ Option.fold ~none:[] ~some:(fun traced -> trace_metrics ~traced ~passes) traced;
  }

let correct r = r.failed = 0 && r.failures = []

(* ---------- output ---------- *)

open Metrics.Export

let unit_of name =
  match Catalog.find name with Some d -> d.Catalog.unit | None -> "?"

let metric_json (name, (s : Summary.t)) =
  ( name,
    Obj
      [ ("value", Num s.value); ("unit", Str (unit_of name)); ("p25", Num s.p25);
        ("p75", Num s.p75); ("samples", List (List.map (fun x -> Num x) s.samples)) ] )

let to_json r =
  Obj
    [
      ("workload", Str r.workload);
      ("seed", num_of_int r.seed);
      ("op", Str r.op);
      ("timed_passes", num_of_int r.timed_passes);
      ("ops_per_pass", num_of_int r.ops_per_pass);
      ("latency_samples", num_of_int r.latency_samples);
      ("correct", Bool (correct r));
      ("attempted", num_of_int r.attempted);
      ("failed", num_of_int r.failed);
      ("failures", List (List.map (fun s -> Str s) r.failures));
      ("end_to_end", Obj (List.map metric_json r.end_to_end));
      ("per_layer", Obj (List.map metric_json r.per_layer));
    ]

let result_line r ~trace =
  json_to_string
    (Obj
       [
         ("correct", Bool (correct r));
         ("attempted", num_of_int r.attempted);
         ("failed", num_of_int r.failed);
         ( "metrics",
           Obj
             (List.map
                (fun (name, (s : Summary.t)) ->
                  (name, Obj [ ("value", Num s.value); ("unit", Str (unit_of name)) ]))
                (if trace then r.per_layer else r.end_to_end)) );
       ])

let print r =
  Printf.printf "== %s (seed %d): %d timed passes of %d ops (op = %s)\n"
    r.workload r.seed r.timed_passes r.ops_per_pass r.op;
  let row (name, (s : Summary.t)) =
    if s.p25 = s.p75 then
      Printf.printf "  %-38s %16.6g %s\n" name s.value (unit_of name)
    else
      Printf.printf "  %-38s %16.6g %-7s [p25 %.6g, p75 %.6g]\n" name s.value
        (unit_of name) s.p25 s.p75
  in
  List.iter row r.end_to_end;
  Printf.printf "  (latency percentiles over %d samples per pass)\n"
    r.latency_samples;
  List.iter row r.per_layer;
  Printf.printf "  checks: %d of %d ops failed\n" r.failed r.attempted;
  List.iter (Printf.printf "  FAILED: %s\n") r.failures
