(** Malicious-hypervisor behaviours, packaged for the threat-model test
    suite. Every function attempts an attack the paper's design must
    stop and reports what happened; the tests assert the architectural
    defence (PMP fault, IOPMP fault, Check-after-Load rejection, SM
    validation) fired. A vector that cannot attempt its access raises
    [Invalid_argument]: it is broken, not blocked. *)

open Hypervisor

type outcome =
  | Blocked of string  (** the defence that stopped it *)
  | Leaked of string
      (** the attack took effect, or ended some other way than by its
          defence — either is a test failure *)

val read_secure_memory : Riscv.Machine.t -> pool_pa:int64 -> outcome
(** HS-mode load from the secure pool; must die on PMP. *)

val write_secure_memory : Riscv.Machine.t -> pool_pa:int64 -> outcome

val dma_into_pool : Riscv.Machine.t -> pool_pa:int64 -> outcome
(** Device-initiated write; must die on IOPMP. *)

val tamper_mmio_reply_register :
  Zion.Monitor.t -> cvm:int -> outcome
(** Redirect a pending MMIO load's destination register in the shared
    vCPU, then resume; [Blocked] only when Check-after-Load refuses
    the reply with [Denied]. *)

val tamper_mmio_pc_advance : Zion.Monitor.t -> cvm:int -> outcome
(** Set a bogus pc advance in the shared vCPU; judged as
    {!tamper_mmio_reply_register}. *)

val map_foreign_secure_page :
  Zion.Monitor.t -> Shared_map.t -> victim_page:int64 -> gpa:int64 -> outcome
(** Point a shared-subtree PTE at another CVM's secure page. Caught by
    the SM's entry validation when enabled; otherwise the device DMA
    path still dies on the IOPMP. *)

val steal_vcpu_state : Zion.Monitor.t -> cvm:int -> outcome
(** Try to read a guest register through the SM-mediated interface;
    [Blocked] only when the SM answers [No_pending_exit] or [Denied]
    (the pending exit does not expose that register). *)

val park_at_mmio_read : Kvm.t -> Kvm.cvm_handle
(** Create a CVM that reads virtio-blk over MMIO and run it on hart 0
    until it stops at that read with the reply pending (acknowledging
    write exits and mapping shared faults on the way): the target the
    shared-vCPU tampering vectors need. Raises [Invalid_argument] when
    the guest cannot be created or never reaches the read. *)

(** {2 Device DMA through a hostile bounce mapping}

    Each vector creates a CVM, points one of its bounce slots at a free
    pool page, and lets the guest kick a device whose DMA targets that
    slot over the exitful MMIO path. [Blocked] only when the IOPMP
    denied the DMA, the device refused the request, the guest still
    reached shutdown and the pool page is unchanged. *)

val blk_read_into_pool : Kvm.t -> outcome
(** A virtio-blk read into slot 1 ({!Guest.Gprog.blk_read_first_byte});
    the status must read 1. Seeds disk sector 0. *)

val net_rx_into_pool : Kvm.t -> outcome
(** A transmit the peer answers, then an RX fill into slot 3
    ({!Guest.Gprog.net_recv_putchar}); the fill must report length 0.
    Leaves the no-op peer installed. *)

val ring_alias_private_page : Kvm.t -> outcome
(** Point a fresh CVM's exitless ring GPA at the code page of another
    CVM, then enable exitless I/O, whose first act is the host's DMA
    zeroing the ring page. [Blocked] only when that page keeps its
    bytes and the enable fails or the ring counts a host reject. A
    {!Host} vector, not a {!Ring} one: it needs no live ring. *)

(** {2 Hostile-ring attacks}

    Ring-poison vectors against the exitless virtio ring: each arms a
    live ring on the CVM (enabling exitless I/O if needed), publishes
    a legitimate request, flips one host-writable field the way a
    Byzantine host would, and drives the service/consume loop. The
    expected defence is always the same: Check-after-Load strikes
    degrade the ring to the exitful MMIO kick path (quarantining the
    device association, never the CVM) with [Zion.Monitor.audit] still
    clean — any other ending is reported as [Leaked]. *)

val ring_poison_desc_gpa : Kvm.t -> Kvm.cvm_handle -> outcome
(** Redirect an in-flight descriptor's buffer GPA out of the shared
    window. *)

val ring_poison_desc_len : Kvm.t -> Kvm.cvm_handle -> outcome
(** Inflate an in-flight descriptor's length past the bounce slot. *)

val ring_used_rewind : Kvm.t -> Kvm.cvm_handle -> outcome
(** Pull the used index backwards after an honest completion. *)

val ring_used_replay : Kvm.t -> Kvm.cvm_handle -> outcome
(** Re-deliver a retired completion under a bumped used index. *)

val ring_used_dup_in_batch : Kvm.t -> Kvm.cvm_handle -> outcome
(** Duplicate a live descriptor id across two used entries published
    under one used-index bump — the in-batch replay that a per-entry
    shadow lookup alone cannot see. *)

val ring_avail_runaway : Kvm.t -> Kvm.cvm_handle -> outcome
(** Run the avail index far past everything published (wrap flood);
    the host clamps, the guest sees phantom completions. *)

(** {2 Hostile-peer channel attacks}

    Vectors against the attested inter-CVM channel ([Zion.Monitor]'s
    [chan_*] interface). The expected defence mirrors the hostile-ring
    story: Check-after-Load strikes degrade the {e channel} (scrubbed
    ring, both mappings gone, precise shootdown) while the endpoint
    CVMs stay out of quarantine — plus the attestation checks that stop
    a mapping from ever going live against a stale or dead peer. *)

val chan_poison_seq : Kvm.t -> Kvm.cvm_handle -> Kvm.cvm_handle -> outcome
(** Scribble a runaway sequence number into a live ring header; polls
    must strike the channel out, never the endpoints. *)

val chan_map_ring : Kvm.t -> Kvm.cvm_handle -> Kvm.cvm_handle -> outcome
(** Alias the live channel ring into an endpoint's shared (host-
    writable) subtree; the SM entry sweep must quarantine the aliasing
    CVM and the quarantine must sweep the channel. Needs a monitor with
    [validate_shared_on_entry]: without the sweep the alias is accepted
    and the vector reports [Leaked]. *)

val chan_accept_stale_epoch :
  Kvm.t -> Kvm.cvm_handle -> Kvm.cvm_handle -> outcome
(** Bump the acceptor's lifecycle epoch (migration lock/abort) between
    offer and accept; the accept must be [Denied]. *)

val chan_peer_destroyed_mid_accept :
  Kvm.t -> Kvm.cvm_handle -> Kvm.cvm_handle -> outcome
(** Destroy the grantor between offer and accept; the accept must find
    the channel dead and install nothing. *)

val chan_quarantined_peer :
  Kvm.t -> Kvm.cvm_handle -> Kvm.cvm_handle -> outcome
(** Quarantine one endpoint of an Established channel (through the
    entry sweep, as {!chan_map_ring}, so it needs the same config); the
    implicit revoke must scrub and unmap both halves while the other
    endpoint keeps running. *)

(** {2 The suite} *)

type group =
  | Host
      (** the nine moves against the pool, the shared vCPU, the shared
          subtree and device DMA, in order on one default
          {!Testbed.create} *)
  | Ring
      (** the six ring-poison vectors ("desc-gpa", …, "avail-runaway"),
          each on a fresh default testbed with a [hello "p"] guest *)
  | Channel
      (** the five channel vectors ("poison-seq", …,
          "quarantined-peer"), each on a fresh testbed with
          [validate_shared_on_entry] and two [hello] guests *)

val suite : group list -> (string * outcome) list
(** Every vector of the listed groups, run on its group's platform and
    named, in the order [Host], [Ring], [Channel]. [zionctl attacks]
    prints all three groups; the bench's poison sweep reads [Ring]. *)
