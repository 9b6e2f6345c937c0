(** Event-priced VM model for the macro benchmarks (Table I, CoreMark,
    Figures 3 and 4).

    The micro experiments run real guest instructions on the simulated
    hart; the macro workloads execute their algorithms natively and
    replay as an {e event stream} — instruction mixes, demand-paging
    faults, device requests, timer ticks — priced by the same cost
    compositions the live monitor charges ([Zion.Monitor.path_cost]) and
    the same KVM fault/emulation constants. Every arm (a normal VM, a
    confidential VM with exitful or exitless I/O) shares all constants;
    the arms differ only in which paths their events take, mirroring
    the real machines, so one workload run is priced under each.

    The confidential arm additionally pays, per world switch, the
    microarchitectural refill implied by ZION's PMP/hgatp switching
    (TLB and L1 flushes), sized by the workload's locality descriptor —
    the effect the paper's §V.B.2 discussion attributes the residual
    overhead to. *)

type io_mode =
  | Exitful
      (** MMIO doorbells: a world switch round trip per access (a
          block request's kick write and status read are two) *)
  | Exitless
      (** ring publish with plain stores; host polling beat amortized
          over {!exitless_batch} requests *)

type kind =
  | Normal  (** a KVM guest: HS-mode MMIO exits, no bounce copies *)
  | Confidential of io_mode
      (** a ZION CVM whose virtio devices take the given path; either
          way its I/O bytes go through the SWIOTLB bounce buffer *)

type t

val create :
  kind:kind ->
  monitor:Zion.Monitor.t ->
  locality:Workloads.Opcount.locality ->
  unit ->
  t

val add_ops : t -> Workloads.Opcount.t -> unit
(** Account computed work (priced per instruction class). *)

val add_cycles : t -> int -> unit
(** Account pre-priced work (e.g. fixed kernel-stack costs). *)

val add_faults : t -> pages:int -> unit
(** Demand-paging events: normal VMs pay the KVM path, confidential VMs
    the hierarchical-allocator mix (page-cache hits with a stage-2 block
    grab every 64 pages). *)

val add_blk_request : t -> bytes:int -> unit
(** One virtio-blk request: device service time plus either two MMIO
    accesses (kick + status) or, for [Confidential Exitless], one ring
    access. Confidential arms add the SWIOTLB bounce copy, and an
    exitful one the per-switch refill. *)

val add_net_access : t -> copied_bytes:int -> unit
(** One access on the net device (an MMIO access, or a ring access for
    [Confidential Exitless]) with [copied_bytes] moved through the
    bounce buffer (only confidential arms pay the copy). *)

val total_cycles : t -> float
(** Total modeled cycles including timer-tick overhead: every 10 ms
    quantum of accumulated time costs one tick on the VM's tick path. *)

val breakdown : t -> (string * float) list
(** Named components of the total (work, faults, io, ticks, refill). *)

val blk_service_cycles : bytes:int -> int
(** Device-side service time for one block request (shared by every
    arm): fixed command overhead plus streaming transfer. *)

val exitless_batch : int
(** Requests amortizing one host polling beat + used-index publish in
    the exitless model. *)
