(** Cycle-cost model, calibrated to the paper's platform (four Rocket
    cores with hypervisor extension at 100 MHz on a Genesys2 FPGA).

    Every field is a per-unit cost in cycles. The Secure Monitor, the
    hypervisor model and the workload runtime compose *paths* out of
    these units; comparative results (short vs long path, shared vs
    unshared vCPU, allocation stages, CVM vs normal VM) differ only in
    which units a path charges, never in the constants themselves.

    The default values were fitted once so that the composed default
    paths land on the paper's absolute measurements (§V.B, §V.C); see
    DESIGN.md §5. *)

type t = {
  (* instruction classes (Rocket in-order core, cache-hit latencies) *)
  alu : int;
  mul : int;
  div : int;
  load : int;
  store : int;
  branch : int;
  jump : int;
  csr : int;  (** one CSR read or write *)
  fence : int;
  (* trap plumbing *)
  trap_entry : int;  (** pipeline flush + vector into a handler *)
  xret : int;  (** mret/sret privilege return *)
  gpr_all : int;  (** save or restore the 31 general registers *)
  csr_ctx_guest : int;  (** save/restore the guest CSR context (16 CSRs) *)
  csr_ctx_host : int;  (** save/restore the host CSR context (8 CSRs) *)
  deleg_reprogram : int;  (** rewrite medeleg/mideleg/hedeleg/hideleg *)
  (* memory-system operations *)
  pmp_toggle : int;  (** flip the secure-pool PMP entries (2 writes) *)
  hgatp_write : int;
  tlb_full_flush : int;
  tlb_vmid_flush : int;
      (** vmid-scoped hfence.gvma — the precise-shootdown primitive *)
  tlb_refill_per_page : int;  (** one page-walk refill after a flush *)
  cache_refill_per_line : int;  (** one L1 line refill after a switch *)
  dcache_lines : int;  (** L1 D-cache capacity in lines (16 KiB / 64 B) *)
  tlb_capacity : int;
  page_walk_step : int;  (** one PTE read during a walk *)
  page_scrub : int;  (** zero one 4 KiB page *)
  (* ZION world-switch specifics *)
  vcpu_integrity : int;  (** secure-vCPU integrity validation at entry *)
  irq_scan : int;  (** pending-interrupt scan + injection decision *)
  timer_prog : int;  (** reprogram mtimecmp for the next world *)
  exit_cause_decode : int;  (** classify the exit in the SM *)
  (* shared-vCPU mechanism *)
  shared_item_store : int;  (** expose one register in the shared vCPU *)
  shared_item_load : int;  (** read one register back on resume *)
  check_after_load : int;  (** TOCTOU validation of one loaded value *)
  (* exitless virtio ring *)
  ring_submit : int;  (** guest publishes descriptor + avail entry + idx *)
  ring_consume_check : int;
      (** Check-after-Load over one used-ring completion *)
  ring_host_poll : int;  (** one (possibly empty) host poll of avail idx *)
  ring_host_service : int;  (** host-side per-request service, excl. copy *)
  ring_notify : int;  (** host publishes used idx (one per batch) *)
  shared_classify : int;  (** per-exit register-classification overhead *)
  resume_merge : int;  (** merge shared values into the secure vCPU *)
  (* SM-mediated transfer used when the shared vCPU is disabled *)
  ecall_roundtrip : int;  (** one GET/SET_REG ecall into the SM and back *)
  secure_copy_item : int;  (** one validated register copy via the SM *)
  unshared_validate : int;  (** extra request validation per transfer *)
  (* long-path (secure-hypervisor) additions, per direction *)
  sechyp_trap : int;
  sechyp_xret : int;
  sechyp_ctx : int;  (** secure hypervisor context save/restore *)
  sechyp_dispatch_entry : int;
  sechyp_dispatch_exit : int;
  sechyp_barrier : int;  (** microarchitectural scrub at the extra hop *)
  (* page-fault paths (§V.C) *)
  sm_fault_decode : int;
  sm_fault_validate : int;
  sm_fault_bookkeeping : int;  (** accounting + cache-cold walk penalty *)
  page_cache_alloc : int;  (** stage 1: pop a page from the vCPU cache *)
  block_grab : int;  (** stage 2: unlink a block, wire the page cache *)
  expand_host_work : int;  (** stage 3: hypervisor-side registration *)
  gstage_map : int;  (** install the final leaf PTE *)
  (* KVM fault path for normal VMs *)
  kvm_save : int;
  kvm_dispatch : int;
  kvm_memslot : int;
  kvm_host_alloc : int;
  kvm_map : int;
  kvm_fence : int;
  kvm_restore : int;
  (* normal-VM lightweight exits *)
  hs_timer_tick : int;  (** timer interrupt handled fully in HS *)
  hs_mmio_exit : int;  (** MMIO emulation round trip via KVM/QEMU *)
}

val default : t
(** Calibrated values; see the module documentation. *)

val scaled : float -> t
(** [scaled f] multiplies every constant by [f] (sensitivity studies). *)

val word_copy : t -> int -> int
(** [word_copy c bytes]: cycles to copy [bytes] as doubleword loads and
    stores, a partial last word counted whole. The one price of every
    bulk copy the model charges: SWIOTLB bounces and channel payloads. *)

val sm_fault_base : t -> int
(** The SM's stage-1 stage-2-fault path (§V.C): trap, decode, validate,
    pop a page from the vCPU cache, scrub it, walk, map, return. A
    stage-2 fault adds [block_grab]. *)

val kvm_fault : t -> int
(** KVM's stage-2 fault path for a normal VM: the 39,607-cycle baseline
    column of §V.C. *)

val to_assoc : t -> (string * int) list
(** Every field as a [(name, cycles)] pair, in declaration order — for
    machine-readable dumps ([zionctl costs --json]). *)
