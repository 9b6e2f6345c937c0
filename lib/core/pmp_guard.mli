(** PMP/IOPMP choreography for the secure memory pool (paper §IV.C).

    Each secure-pool region occupies one PMP entry per hart. In Normal
    mode the entry matches with no permissions, so the first-match rule
    makes the pool unreachable below M; before entering CVM mode the
    Secure Monitor rewrites the entry to grant access (stage-2 paging
    then confines the CVM within the pool). A final backdrop entry
    grants lower privileges access to everything else.

    The guard keeps a per-hart epoch cache: a region epoch bumped on
    every change to the programmed region set, plus each hart's last
    synced epoch and current world. [sync_hart] and [set_world] consult
    it and skip the reprogramming (returning [false]) when the hart's
    entries are already exactly what was asked for — the cost model
    charges [pmp_toggle] only for work actually performed.

    The IOPMP receives a standing deny entry per region, so DMA-capable
    devices can never reach the pool in either world. *)

type t

val create : ?trace:Metrics.Trace.t -> unit -> t
(** [trace], when given, receives an instant event per PMP resync,
    per-world permission toggle and per-IOPMP deny installation —
    the reprogramming operations the paper's switch costs are made
    of. Nothing is recorded while the trace is disabled. *)

val max_regions : int
(** Pool regions representable before PMP entries run out (14: entry 15
    is the backdrop and entry 14 is kept in reserve for firmware). *)

val admits : Secmem.t -> base:int64 -> size:int64 -> bool
(** Whether the pool can take the region [\[base, base+size)] and still
    be programmed by [sync_hart]: the region is NAPOT-encodable
    (power-of-two sized and size-aligned) and the pool stays within
    [max_regions]. The monitor checks this before it links a region. *)

val sync_hart : t -> Riscv.Hart.t -> Secmem.t -> cvm_open:bool -> bool
(** Program all pool regions into the hart's PMP, with permissions
    according to [cvm_open], plus the backdrop entry. Returns whether
    any CSR was written: [false] when the hart was already programmed
    at the current region epoch with the same world (the epoch-cache
    fast path). Raises [Invalid_argument] when regions exceed
    [max_regions] or a region is not NAPOT-encodable. *)

val set_world : t -> Riscv.Hart.t -> cvm_open:bool -> bool
(** Fast path used on world switches: toggle only the permission bytes
    of the already-programmed region entries. Returns whether the
    toggle was performed; [false] when the hart already grants
    [cvm_open] (redundant call — nothing to charge). *)

val guard_iopmp : t -> Riscv.Iopmp.t -> Secmem.t -> unit
(** Install deny entries over every pool region (idempotent per
    region). *)

val reset : t -> unit
(** Drop every cached belief about programmed PMP/IOPMP state. Called
    after a modeled SM/host crash wiped the real CSRs and device
    registers, so the caches would otherwise claim work is done that a
    reboot undid; the next [sync_hart]/[guard_iopmp] reprograms
    everything. *)

val sync_count : t -> int
(** Full PMP reprogramming passes since creation (performed only). *)

val world_toggle_count : t -> int
(** Fast-path permission flips since creation (performed only). *)

val sync_skip_count : t -> int
(** Resyncs the epoch cache proved redundant and skipped. *)

val world_skip_count : t -> int
(** World toggles the epoch cache proved redundant and skipped. *)
