type row = {
  op : string;
  normal_kqps : float;
  cvm_kqps : float;
  throughput_drop_pct : float;
  normal_latency_ms : float;
  cvm_latency_ms : float;
  latency_increase_pct : float;
  exitless_throughput_drop_pct : float;
  nil_replies : int;
}

(* Per-request constants (see the interface): calibrated once against
   the platform — a 100 MHz in-order core spends a few ms per
   networked request in the kernel. *)
let kernel_stack_cycles = 400_000
let client_overhead_cycles = 132_000
let mmio_accesses_per_request = 1.5

let clock_hz = 1e8

(* One op's pass on the shared [server]; it is priced from the server
   work this pass added, not from what earlier ops left on the
   counter. *)
let run_one ~monitor ~server ~rounds ~requests op =
  let before = Workloads.Opcount.copy (Workloads.Redis.ops server) in
  let total_reqs = rounds * requests in
  let bytes_moved = ref 0 and nils = ref 0 in
  for seq = 0 to total_reqs - 1 do
    let req = Workloads.Redis.request_for ~op ~key_space:requests ~seq in
    let reply = Workloads.Redis.handle server req in
    if reply = "$-1\r\n" then incr nils;
    bytes_moved := !bytes_moved + String.length req + String.length reply
  done;
  let ops = Workloads.Opcount.diff (Workloads.Redis.ops server) before in
  (* Virtio-net accesses with coalescing; bounce traffic is the RESP
     bytes in both directions. *)
  let accesses =
    int_of_float
      (Float.round (mmio_accesses_per_request *. float_of_int total_reqs))
  in
  let per_access_bytes = !bytes_moved / max accesses 1 in
  let cycles_per_req kind =
    let vm =
      Macro_vm.create ~kind ~monitor ~locality:Workloads.Redis.locality ()
    in
    (* Server + guest-kernel work. *)
    Macro_vm.add_ops vm ops;
    Macro_vm.add_cycles vm (kernel_stack_cycles * total_reqs);
    for _ = 1 to accesses do
      Macro_vm.add_net_access vm ~copied_bytes:per_access_bytes
    done;
    Macro_vm.add_faults vm ~pages:64;
    Macro_vm.total_cycles vm /. float_of_int total_reqs
  in
  let per_req_n = cycles_per_req Macro_vm.Normal in
  let per_req_c = cycles_per_req Macro_vm.(Confidential Exitful) in
  let per_req_l = cycles_per_req Macro_vm.(Confidential Exitless) in
  let qps cycles_per_req = clock_hz /. cycles_per_req in
  let drop_pct per_req = (per_req -. per_req_n) /. per_req *. 100. in
  let latency_ms per_req =
    (per_req +. float_of_int client_overhead_cycles) /. clock_hz *. 1000.
  in
  let n_lat = latency_ms per_req_n and c_lat = latency_ms per_req_c in
  {
    op;
    normal_kqps = qps per_req_n /. 1000.;
    cvm_kqps = qps per_req_c /. 1000.;
    throughput_drop_pct = drop_pct per_req_c;
    normal_latency_ms = n_lat;
    cvm_latency_ms = c_lat;
    latency_increase_pct = (c_lat -. n_lat) /. n_lat *. 100.;
    exitless_throughput_drop_pct = drop_pct per_req_l;
    nil_replies = !nils;
  }

(* The ops run in order on one server, as redis-benchmark runs its
   tests: LPOP and RPOP pop what LPUSH and RPUSH pushed. *)
let run ?(rounds = 10) ?(requests = 10_000) () =
  let tb = Testbed.create () in
  let server = Workloads.Redis.create () in
  List.rev
    (List.fold_left
       (fun rows op ->
         run_one ~monitor:tb.Testbed.monitor ~server ~rounds ~requests op
         :: rows)
       [] Workloads.Redis.benchmark_ops)

(* {2 Traced end-to-end run} *)

type traced_stats = {
  t_requests : int;
  t_completed : int;
  t_total_cycles : int;
  t_outcome : Hypervisor.Kvm.cvm_outcome;
}

let run_traced ?(ops = [ "SET"; "GET" ]) ?(requests = 10) ?(key_space = 4)
    ?profile_interval ?(quantum = Testbed.quantum_cycles)
    ?(max_slices = 400) ?on_slice () =
  if ops = [] then invalid_arg "Exp_redis.run_traced: empty op list";
  let tb = Testbed.create () in
  let mon = tb.Testbed.monitor in
  let tr = Zion.Monitor.trace mon in
  Metrics.Trace.enable tr;
  (match profile_interval with
  | Some interval -> Zion.Monitor.enable_profiler ~interval mon
  | None -> ());
  let server = Workloads.Redis.create () in
  let nops = List.length ops in
  let reqs =
    List.init requests (fun seq ->
        Workloads.Redis.request_for ~op:(List.nth ops (seq mod nops))
          ~key_space ~seq)
  in
  (* One TX (request) + one RX fill (reply head) per request, fully
     unrolled: distinct requests land on distinct guest code pages,
     which is what gives the profiler a real hot-page distribution. *)
  let prog =
    List.concat_map
      (fun req -> Guest.Gprog.net_send req @ Guest.Gprog.net_recv_putchar)
      reqs
    @ Guest.Gprog.shutdown
  in
  let h = Testbed.cvm tb prog in
  let id = Hypervisor.Kvm.cvm_id h in
  (match Zion.Monitor.profiler mon with
  | Some p ->
      let lo = Testbed.guest_entry in
      let hi =
        Int64.add lo
          (Int64.of_int (String.length (Riscv.Asm.program prog)))
      in
      Metrics.Profile.add_region p ~cvm:id ~lo ~hi "guest.text"
  | None -> ());
  let ledger = tb.Testbed.machine.Riscv.Machine.ledger in
  let start = Metrics.Ledger.now ledger in
  let completed = ref 0 in
  let last_req = ref start in
  let net = Hypervisor.Mmio_emul.net (Hypervisor.Kvm.devices tb.Testbed.kvm) in
  Hypervisor.Virtio_net.set_peer net (fun pkt ->
      let now = Metrics.Ledger.now ledger in
      Metrics.Registry.observe ~scope:(Metrics.Registry.Cvm id)
        (Zion.Monitor.registry mon)
        "request_cycles" (now - !last_req);
      last_req := now;
      incr completed;
      Some (Workloads.Redis.handle_traced ~trace:tr server pkt));
  let outcome =
    Hypervisor.Kvm.run_cvm_to_completion tb.Testbed.kvm h ~hart:0 ~quantum
      ~max_slices
      ?on_slice:(Option.map (fun f slice -> f slice tb) on_slice)
  in
  (match profile_interval with
  | Some _ -> Zion.Monitor.disable_profiler mon
  | None -> ());
  Metrics.Trace.clear_ctx tr;
  ( tb,
    {
      t_requests = requests;
      t_completed = !completed;
      t_total_cycles = Metrics.Ledger.now ledger - start;
      t_outcome = outcome;
    } )

let average_throughput_drop rows =
  Metrics.Stats.mean
    (Array.of_list (List.map (fun r -> r.throughput_drop_pct) rows))

let average_latency_increase rows =
  Metrics.Stats.mean
    (Array.of_list (List.map (fun r -> r.latency_increase_pct) rows))

let paper_avgs = (5.3, 4.0)
