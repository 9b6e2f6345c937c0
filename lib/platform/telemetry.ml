open Riscv

type workload = Switch | Fault | Boot | Redis

let workloads =
  [ ("switch", Switch); ("fault", Fault); ("boot", Boot); ("redis", Redis) ]

type run = {
  testbed : Testbed.t;
  outcome : Hypervisor.Kvm.cvm_outcome;
  redis : Exp_redis.traced_stats option;
}

let run ?n workload =
  match workload with
  | Redis ->
      let testbed, stats =
        Exp_redis.run_traced
          ~requests:(Option.value n ~default:24)
          ~profile_interval:Metrics.Profile.default_interval ()
      in
      { testbed; outcome = stats.Exp_redis.t_outcome; redis = Some stats }
  | Switch | Fault | Boot ->
      let n = Option.value n ~default:50 in
      let testbed =
        Testbed.create ~pool_mib:(if workload = Fault then 1 else 8) ()
      in
      Metrics.Trace.enable (Zion.Monitor.trace testbed.Testbed.monitor);
      let program =
        match workload with
        | Switch -> Exp_switch.mmio_program ~iterations:n
        | Fault ->
            Guest.Gprog.touch_pages ~start_gpa:0x800000L ~pages:n
            @ Guest.Gprog.shutdown
        | Boot | Redis -> Guest.Gprog.hello "traced boot\n"
      in
      let outcome =
        Hypervisor.Kvm.run_cvm_to_completion testbed.Testbed.kvm
          (Testbed.cvm testbed program)
          ~hart:0 ~quantum:Testbed.quantum_cycles ~max_slices:100
      in
      { testbed; outcome; redis = None }

type format = Table | Json | Prom | Chrome | Jsonl | Folded

let formats =
  [
    ("table", Table); ("json", Json); ("prom", Prom); ("chrome", Chrome);
    ("jsonl", Jsonl); ("folded", Folded);
  ]

let trace r = Zion.Monitor.trace r.testbed.Testbed.monitor
let registry r = Zion.Monitor.registry r.testbed.Testbed.monitor

let ledger r =
  Metrics.Ledger.categories r.testbed.Testbed.machine.Machine.ledger

let trace_summary r =
  let tr = trace r in
  Printf.sprintf "trace: %d events recorded, %d dropped (capacity %d)\n"
    (Metrics.Trace.recorded tr) (Metrics.Trace.dropped tr)
    (Metrics.Trace.capacity tr)

let counts rows = List.map (fun (c, n) -> [ c; string_of_int n ]) rows

let table r =
  let tlb i h =
    let tlb = h.Hart.tlb in
    List.map string_of_int
      [ i; Tlb.hits tlb; Tlb.misses tlb; Tlb.flushes tlb; Tlb.occupancy tlb ]
  in
  String.concat ""
    [
      Metrics.Registry.dump (registry r);
      Metrics.Table.heading "TLB (per hart)";
      Metrics.Table.render
        ~header:[ "hart"; "hits"; "misses"; "flushes"; "occupancy" ]
        (List.mapi tlb (Array.to_list r.testbed.Testbed.machine.Machine.harts));
      Metrics.Table.heading "PMP guard";
      Metrics.Table.render ~header:[ "counter"; "count" ]
        (counts (Zion.Monitor.pmp_counters r.testbed.Testbed.monitor));
      Metrics.Table.heading "cycle ledger (cycles by category)";
      Metrics.Table.render ~header:[ "category"; "cycles" ] (counts (ledger r));
      trace_summary r;
    ]

let json r =
  let open Metrics.Export in
  let members kvs = Obj (List.map (fun (k, v) -> (k, num_of_int v)) kvs) in
  let tr = trace r in
  let run =
    match r.redis with
    | Some s ->
        [
          ( "run",
            members
              [
                ("requests", s.Exp_redis.t_requests);
                ("completed", s.Exp_redis.t_completed);
                ("total_cycles", s.Exp_redis.t_total_cycles);
              ] );
        ]
    | None -> []
  in
  let extra =
    [
      ( "trace",
        members
          [
            ("recorded", Metrics.Trace.recorded tr);
            ("dropped", Metrics.Trace.dropped tr);
            ("capacity", Metrics.Trace.capacity tr);
          ] );
      ("ledger", members (ledger r));
    ]
    @ run
  in
  json_to_string (registry_to_json ~extra (registry r)) ^ "\n"

let render format r =
  match format with
  | Table -> table r
  | Json -> json r
  | Prom -> Metrics.Export.registry_to_prometheus (registry r)
  | Chrome -> Metrics.Trace.to_chrome (trace r)
  | Jsonl -> Metrics.Trace.to_jsonl (trace r)
  | Folded -> (
      match Zion.Monitor.profiler r.testbed.Testbed.monitor with
      | Some p -> Metrics.Profile.folded p
      | None -> "")
