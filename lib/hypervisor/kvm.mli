(** The untrusted host virtualization stack: KVM run loops for normal
    VMs and the driver that controls confidential VMs through the Secure
    Monitor's ECALL interface, plus the QEMU-side device emulation.

    Normal VMs are the paper's baseline: KVM owns their stage-2 tables
    (in normal memory), handles their stage-2 faults (§V.C's 39,607-cycle
    path), their timer ticks, and their MMIO directly in HS mode.

    Confidential VMs are driven through [Zion.Monitor]: KVM sees only
    the exit reasons and the shared vCPU, and services MMIO, shared-
    region faults and pool expansion. *)

type t

val create :
  machine:Riscv.Machine.t ->
  monitor:Zion.Monitor.t ->
  ?disk_sectors:int ->
  unit ->
  t
(** Sets up the host allocator over DRAM above the 16 MiB kernel image
    and the emulated virtio devices. *)

val machine : t -> Riscv.Machine.t
val monitor : t -> Zion.Monitor.t
val host_mem : t -> Host_mem.t
val devices : t -> Mmio_emul.t

val donate_secure_pool : t -> mib:int -> (unit, string) result
(** Allocate a contiguous, block-aligned region from host memory and
    register it with the Secure Monitor as the initial secure pool. *)

(* {2 Normal VMs (baseline)} *)

type nvm

val create_normal_vm :
  t -> entry_pc:int64 -> image:(int64 * string) list -> (nvm, string) result
(** Build a normal VM: stage-2 tables in normal memory, image pages
    allocated and mapped eagerly by the host. *)

type normal_exit = N_timer | N_shutdown | N_limit | N_error of string

val run_normal_vm :
  t -> nvm -> hart:int -> max_steps:int -> normal_exit
(** KVM vCPU loop: runs the guest, servicing stage-2 faults, MMIO and
    SBI calls in HS mode; returns on timer, shutdown, or step budget. *)

val nvm_fault_count : t -> int
(** Normal-VM stage-2 faults served so far. Each charges
    [Cost.kvm_fault] in all: the trap's [trap_entry] plus the rest under
    the ledger category ["kvm_fault"]. *)

(* {2 Confidential VMs} *)

type cvm_handle

val cvm_id : cvm_handle -> int
val cvm_shared_map : cvm_handle -> Shared_map.t

val create_cvm_guest :
  t ->
  entry_pc:int64 ->
  image:(int64 * string) list ->
  (cvm_handle, string) result
(** Full CVM setup: create through the SM, load and measure the image,
    finalize, build the hypervisor's shared subtree and hand its root to
    the SM. *)

type cvm_outcome =
  | C_timer
  | C_shutdown
  | C_limit
  | C_denied  (** the SM refused a resume (Check-after-Load etc.) *)
  | C_error of string

val run_cvm :
  t -> cvm_handle -> hart:int -> max_steps:int -> cvm_outcome
(** Drive the CVM until a scheduling-relevant event: MMIO exits are
    emulated and resumed internally (through the shared vCPU or
    GET/SET_REG according to the monitor's configuration), shared-region
    faults are mapped, pool exhaustion triggers expansion. An expansion
    that adds no block to the pool (see [expand_policy]) is retried
    with exponential backoff at most a few times before the driver
    returns [C_error]. *)

type expand_policy =
  | Expand_honest  (** register exactly what the SM asked for *)
  | Expand_deny  (** never register; pretend to comply *)
  | Expand_delay of int  (** skip the first [n] requests, then honest *)
  | Expand_short  (** register one block less than asked *)

val set_expand_policy : t -> expand_policy -> unit
(** Fault injection for the slow path: control how [Exit_need_memory]
    is answered. The dishonest policies model a hostile or broken host;
    the SM must keep its invariants regardless (the guest simply cannot
    make progress, and [run_cvm] gives up after bounded retries). *)

val run_cvm_to_completion :
  ?on_slice:(int -> unit) ->
  t -> cvm_handle -> hart:int -> quantum:int -> max_slices:int -> cvm_outcome
(** Keep scheduling the CVM (reprogramming the timer each slice) until
    it shuts down or the slice budget runs out. [on_slice n] runs after
    slice [n] (from 0) expires on the timer, so a caller can watch the
    run live between quanta. *)

val mmio_exits_serviced : t -> int
val expansions : t -> int

(** {2 Exitless I/O}

    A per-CVM {!Virtio_ring} in the SWIOTLB shared region: the guest
    publishes descriptors without ringing any doorbell, the host
    drains the ring on its polling beat (every [run_cvm] entry and
    every timer exit), and completions come back batched under one
    used-index publish. A poisoned or stalled ring degrades to the
    exitful MMIO kick path and quarantines the device association —
    never the CVM. *)

val enable_exitless_io :
  t -> cvm_handle -> (Virtio_ring.guest, string) result
(** Map the ring page into the CVM's shared subtree (reusing an
    existing mapping if the guest already faulted it in) and start
    host-side polling. Returns the trusted guest view. [Error], with no
    ring bound, when the IOPMP denies the host's DMA to the page the
    ring GPA maps (a host that aliased it to secure memory). *)

val disable_exitless_io : t -> cvm_handle -> unit
(** Tear the device association down: retire the host poller, force
    the guest view into exitful fallback (bounce slots released
    exactly once), and unmap the ring page from the shared subtree.
    Writes nothing to the ring page. Idempotent. *)

val service_exitless : t -> cvm_handle -> int
(** Drain the CVM's ring once (host side); returns completions
    written. [0] when no ring is bound or it has been retired. *)

val exitless_poll : t -> cvm_handle -> int * Virtio_ring.verdict
(** Guest-side consume with the degradation policy attached: any
    fallback the Check-after-Load validation triggers immediately
    quarantines the device association via {!disable_exitless_io}. *)

val exitless_guest : t -> cvm_handle -> Virtio_ring.guest option
val exitless_host : t -> cvm_handle -> Virtio_ring.host option
val exitless_active : t -> cvm_handle -> bool

val expand_stalls : t -> int
(** Expansion requests that added nothing to the pool (dishonest
    policies) and were retried with backoff. Each retry charges an
    exponential backoff plus a per-instance deterministic jitter in
    [0, base/2) — so the ledger records between [1000 lsl n] and
    [1.5 * (1000 lsl n)] cycles for stall [n], and a fleet of tenants
    stalling on the same exhausted pool does not retry in lockstep. *)

(** {2 Attested inter-CVM channels}

    The host's relay role in the [Zion.Monitor.chan_*] handshake. *)

val connect_channel :
  t ->
  cvm_handle ->
  cvm_handle ->
  nonce_a:string ->
  nonce_b:string ->
  (int, string) result
(** Full attested handshake between two CVMs on this platform: grant
    from the first endpoint (challenging the peer with [nonce_a]),
    verify the peer's SM-signed report (MAC, expected measurement,
    nonce freshness — all in constant time), then accept from the
    second endpoint (challenging back with [nonce_b]) and verify the
    grantor's report likewise. Any verification failure revokes the
    offer before the mapping could be used and returns [Error]; on
    [Ok chan] the channel is Established with both slot GPAs live. *)
