(** One traced run of a small workload under the SM flight recorder,
    and every rendering of what it recorded. This is the one producer
    behind [zionctl telemetry] and the bench harness's observability
    section: the registry, trace, ledger and profile of a run come out
    of here in one schema, whatever the output format. *)

type workload =
  | Switch  (** MMIO world-switch storm ({!Exp_switch.mmio_program}) *)
  | Fault  (** page-touch storm over a 1 MiB pool *)
  | Boot  (** hello-world guest *)
  | Redis
      (** RESP requests over virtio-net ({!Exp_redis.run_traced}), with
          the guest PC-sampling profiler at its default interval *)

val workloads : (string * workload) list
(** By name: ["switch"], ["fault"], ["boot"], ["redis"]. *)

type run = {
  testbed : Testbed.t;
  outcome : Hypervisor.Kvm.cvm_outcome;
  redis : Exp_redis.traced_stats option;  (** [Some] for {!Redis} *)
}

val run : ?n:int -> workload -> run
(** A fresh testbed with the flight recorder enabled, driven to the
    guest's shutdown. [n] is the workload's size: MMIO loads (switch),
    pages touched (fault) or RESP requests (redis); boot ignores it.
    It defaults to 50, or 24 for redis. *)

type format =
  | Table  (** registry, TLB, PMP and ledger tables, trace summary *)
  | Json
      (** the registry as {!Metrics.Export.registry_to_json}, with
          ["trace"] and ["ledger"] members, and ["run"] for redis *)
  | Prom  (** Prometheus text exposition of the registry *)
  | Chrome  (** chrome://tracing / Perfetto trace_event file *)
  | Jsonl  (** one JSON object per trace event *)
  | Folded
      (** the profiler's folded stacks (flamegraph.pl input); empty
          unless the workload ran the profiler *)

val formats : (string * format) list
(** By name: ["table"], ["json"], ["prom"], ["chrome"], ["jsonl"],
    ["folded"]. *)

val render : format -> run -> string

val trace_summary : run -> string
(** ["trace: N events recorded, D dropped (capacity C)\n"]. *)
