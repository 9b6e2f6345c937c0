type kind = Sim | Host
type better = Lower | Higher
type def = { name : string; unit : string; kind : kind; better : better }

let def name unit kind better = { name; unit; kind; better }

let end_to_end =
  [
    def "sim_cycles_per_op" "cycles" Sim Lower;
    def "sim_latency_p50_cycles" "cycles" Sim Lower;
    def "sim_latency_p99_cycles" "cycles" Sim Lower;
    def "cvm_cycle_ratio" "ratio" Sim Lower;
    def "setup_s" "s" Host Lower;
    def "peak_rss_mb" "MiB" Host Lower;
  ]

let per_layer =
  [
    def "riscv.sim_cycles_per_op" "cycles" Sim Lower;
    def "riscv.instret_per_op" "count" Sim Lower;
    def "riscv.tlb_hit_rate" "ratio" Sim Higher;
    def "riscv.tlb_misses_per_kinstr" "count" Sim Lower;
    def "riscv.host_ns_per_instr" "ns" Host Lower;
    def "zion.sim_cycles_per_op" "cycles" Sim Lower;
    def "zion.switches_per_op" "count" Sim Lower;
    def "zion.entry_cycles_mean" "cycles" Sim Lower;
    def "zion.exit_cycles_mean" "cycles" Sim Lower;
    def "zion.faults_per_op" "count" Sim Lower;
    def "zion.fault_cycles_mean" "cycles" Sim Lower;
    def "zion.fault_stage2_pct" "%" Sim Lower;
    def "zion.fault_stage3_count" "count" Sim Lower;
    def "zion.create_cycles_mean" "cycles" Sim Lower;
    def "zion.destroy_cycles_mean" "cycles" Sim Lower;
    def "zion.host_ms_per_create" "ms" Host Lower;
    def "zion.host_ms_per_destroy" "ms" Host Lower;
    def "zion.pmp_sync_skip_ratio" "ratio" Sim Higher;
    def "zion.world_toggle_skip_ratio" "ratio" Sim Higher;
    def "zion.audit_findings" "count" Sim Lower;
    def "hypervisor.sim_cycles_per_op" "cycles" Sim Lower;
    def "hypervisor.mmio_exits_per_op" "count" Sim Lower;
    def "hypervisor.slices_per_op" "count" Sim Lower;
    def "hypervisor.host_us_per_slice" "us" Host Lower;
    def "hypervisor.ring_notifications_per_op" "count" Sim Lower;
    def "hypervisor.ring_host_rejects" "count" Sim Lower;
    def "hypervisor.blk_bytes_per_op" "bytes" Sim Lower;
    def "hypervisor.expansions" "count" Sim Lower;
    def "workloads.host_us_per_request" "us" Host Lower;
    def "host.ops_per_s" "1/s" Host Higher;
    def "host.guest_mips" "MIPS" Host Higher;
    def "host.alloc_words_per_op" "words" Host Lower;
    def "host.major_gcs_per_pass" "count" Host Lower;
    def "metrics.trace_overhead_pct" "%" Host Lower;
    def "metrics.trace_events_per_op" "count" Sim Lower;
    def "metrics.trace_dropped" "count" Sim Lower;
    def "metrics.traced_pass_ms" "ms" Host Lower;
    def "bench.self_ms" "ms" Host Lower;
    def "platform.self_ms" "ms" Host Lower;
    def "hypervisor.self_ms" "ms" Host Lower;
    def "zion.self_ms" "ms" Host Lower;
    def "workloads.self_ms" "ms" Host Lower;
  ]

let self_layers = [ "bench"; "platform"; "hypervisor"; "zion"; "workloads" ]
let find name = List.find_opt (fun d -> d.name = name) (end_to_end @ per_layer)
