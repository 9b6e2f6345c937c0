(** Figure 3 — Redis throughput and latency, normal VM vs confidential
    VM.

    A redis-benchmark-style client drives the real RESP server
    ([Workloads.Redis]) with [rounds] × [requests] commands per
    operation type. The operation types run in order on one server,
    as redis-benchmark runs its tests, so LPOP and RPOP pop what LPUSH
    and RPUSH pushed; each is priced from the server work its own pass
    added. Every request's server-side instruction mix is
    measured; the event model adds the guest kernel's network-stack
    cost, the virtio-net accesses (with interrupt coalescing) and, for
    the confidential VM, SWIOTLB bounce copies and, on MMIO kicks,
    post-switch refills. Each operation's server pass runs once and is
    priced under all three arms: the normal VM, and the CVM with its
    virtio-net on exitful MMIO kicks or on the exitless ring. *)

type row = {
  op : string;
  normal_kqps : float;  (** thousand requests per second *)
  cvm_kqps : float;  (** the CVM's virtio-net on exitful MMIO kicks *)
  throughput_drop_pct : float;
  normal_latency_ms : float;
  cvm_latency_ms : float;
  latency_increase_pct : float;
  exitless_throughput_drop_pct : float;
      (** the drop when the CVM's virtio-net is on the exitless ring *)
  nil_replies : int;
      (** requests answered with a nil bulk string: a GET of a missing
          key or a pop of an empty list *)
}

val run : ?rounds:int -> ?requests:int -> unit -> row list
(** Defaults: 10 rounds × 10,000 requests, as in the paper. *)

type traced_stats = {
  t_requests : int;  (** requests baked into the guest program *)
  t_completed : int;  (** requests that reached the host-side server *)
  t_total_cycles : int;
  t_outcome : Hypervisor.Kvm.cvm_outcome;
}

val run_traced :
  ?requests:int ->
  ?profile_interval:int ->
  ?quantum:int ->
  ?max_slices:int ->
  ?on_slice:(int -> Testbed.t -> unit) ->
  unit ->
  Testbed.t * traced_stats
(** Run a real CVM guest that sends [requests] RESP commands (SET and
    GET in turn, over four keys) over virtio-net to the
    host-side Redis server, with the platform flight recorder enabled
    and span contexts propagated end to end: each request is a
    ["resp.request"] root span whose context stamps the world-switch,
    virtio and ecall events it causes. Per-request latency is observed
    into the registry's per-CVM ["request_cycles"] histogram (which is
    what {!Zion.Monitor.health_snapshot} reports as p50/p99).
    [profile_interval], when given, also enables the guest PC-sampling
    profiler for the duration of the run and registers the guest text
    as a symbol region. [on_slice] is called after every expired
    quantum — the live hook behind [zionctl top]. The returned testbed
    exposes the trace, registry and profiler for export. *)

val average_throughput_drop : row list -> float
val average_latency_increase : row list -> float

val paper_avgs : float * float
(** (−5.3 % throughput, +4 % latency). *)

val kernel_stack_cycles : int
(** Guest network-stack cost per request (socket, softirq, copies). *)

val client_overhead_cycles : int
(** Benchmark-client side of the measured round-trip latency. *)

val mmio_accesses_per_request : float
(** Effective virtio-net MMIO accesses per request after interrupt
    coalescing/NAPI. *)
