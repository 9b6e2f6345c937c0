(** One hardware thread: register file, program counter, privilege mode,
    CSR file, TLB and its connection to the system bus.

    Memory accessors perform the full architectural path — one- or
    two-stage address translation according to the current mode and
    [satp]/[vsatp]/[hgatp], PMP checks on the resulting physical
    address — and charge the cycle ledger for walks and refills.
    Architectural failures raise [Trap_exn], which the interpreter turns
    into a trap via [Trap.take].

    The hart additionally carries purely-microarchitectural fast-path
    state (fetch/load/store last-translation memos, a per-physical-page
    decoded-instruction cache, and a CLINT poll memo). Every piece is a
    memo over architectural state owned elsewhere, validated by
    generation counters ([Physmem.page_gen], [Tlb.generation],
    [Pmp.reconfig_writes], [Clint.generation]); serving from it is
    indistinguishable from the uncached path — same traps, same TLB
    statistics, same ledger — and dropping it at any time is always
    correct. Nothing needs dropping for correctness: decoded pages are
    kept across world switches, and the callers of
    [invalidate_fast_path] drop them only to release memory held for
    code that will not run again. *)

exception
  Trap_exn of Cause.exception_t * int64 * int64
      (** (cause, tval, tval2). [tval2] carries the guest-physical
          address (pre-shifted right by 2) for guest-page faults, else 0. *)

type dpage
(** One cached page of pre-decoded instructions. *)

type amemo
(** One last-translation memo: (vpage, mode, raw satp/vsatp/hgatp, PMP
    epoch, TLB structural generation) → pa page. Armed only when the
    whole destination page passes PMP for the access kind. *)

type fastpath = {
  mutable fp_enabled : bool;
  fm : amemo;  (** fetch translations *)
  lm : amemo;  (** load translations *)
  sm : amemo;  (** store and AMO translations *)
  dcache : dpage option array;
      (** 64 ways, direct-mapped by PA page, 1,024 slots each. An
          evicted way's slot array is reused by the page that evicts
          it. *)
  mutable words : (int64 * Decode.t) array;
      (** 2,048 (raw, decoded) pairs, direct-mapped by raw word and
          allocated on the first fill. Every cached slot holding a
          resident word points at its one pair. *)
  mutable cl_gen : int;
  mutable cl_poll_at : int64;
  mutable cl_last_time : int64;
  mutable cl_mtip : bool;
  mutable cl_msip : bool;
  mutable st_fills : int;
  mutable st_revalidations : int;
  mutable st_evictions : int;
}
(** Fast-path memo state; see the module comment. The [cl_*] fields are
    maintained by [Exec.step]'s timer poll; the [st_*] counters are
    read through [fast_path_stats]. *)

type exec_counters = {
  c_alu : Metrics.Ledger.counter;
  c_jump : Metrics.Ledger.counter;
  c_branch : Metrics.Ledger.counter;
  c_load : Metrics.Ledger.counter;
  c_store : Metrics.Ledger.counter;
  c_muldiv : Metrics.Ledger.counter;
  c_amo : Metrics.Ledger.counter;
  c_csr : Metrics.Ledger.counter;
  c_fence : Metrics.Ledger.counter;
  c_wfi : Metrics.Ledger.counter;
  c_page_walk : Metrics.Ledger.counter;
}
(** Pre-resolved ledger counters for the per-instruction categories
    ([Metrics.Ledger.tick] ≡ [charge] minus the string hash). *)

type t = {
  id : int;
  regs : int64 array;  (** x0..x31; x0 is forced to zero on read *)
  mutable pc : int64;
  mutable mode : Priv.t;
  csr : Csr.t;
  tlb : Tlb.t;
  bus : Bus.t;
  ledger : Metrics.Ledger.t;
  cost : Cost.t;
  mutable reservation : int64 option;  (** LR/SC reservation address *)
  mutable wfi_stalled : bool;
  mutable sample_in : int;
      (** retired instructions left before the installed PC-sampling
          profiler takes its next sample; counted down by [Exec.step] *)
  fp : fastpath;
  cnt : exec_counters;
}

val create :
  ?cost:Cost.t -> ?ledger:Metrics.Ledger.t -> id:int -> Bus.t -> t
(** A hart in M mode at pc 0 with a fresh CSR file and the fast path
    enabled. *)

val fast_path_enabled : t -> bool

val set_fast_path : t -> bool -> unit
(** Enable/disable the fast path; disabling also drops all memos. The
    cached interpreter is architecturally invisible; the switch exists
    for A/B benchmarking and differential testing. *)

val invalidate_fast_path : t -> unit
(** Drop the translation memos, the decoded pages and the CLINT poll
    memo. Correct at any time, and never needed for correctness: the
    generation checks already reject anything stale. The SM calls it
    where a VM's code stops running (destroy, relinquish and channel
    shootdowns, region setup, aborted entries, recovery) so that a dead
    VM's decoded pages do not stay resident. World switches keep the
    cache. The shared word table is kept: it depends on nothing but
    the word. *)

val fence : t -> (Tlb.t -> unit) -> unit
(** [fence t flush] runs the TLB flush [flush] on this hart's TLB and
    then {!invalidate_fast_path}, so the memos a dead VM left behind go
    with its TLB entries. Every TLB shootdown outside a world switch
    goes through here. *)

val flush_decode_cache : t -> unit
(** Drop only the decoded pages ([fence.i]). *)

type fast_path_stats = {
  decode_fills : int;  (** decode-cache slots filled *)
  revalidations : int;
      (** cached pages cleared because their write generation moved *)
  evictions : int;  (** ways taken over by a different page *)
  fetch_memo_hits : int;
  load_memo_hits : int;
  store_memo_hits : int;  (** stores and AMOs *)
}
(** Cumulative fast-path health counters since the hart was created.
    Invalidation does not reset them. *)

val fast_path_stats : t -> fast_path_stats

val get_reg : t -> int -> int64
val set_reg : t -> int -> int64 -> unit

val translate : ?len:int -> t -> Sv39.access -> int64 -> int64
(** Translate a virtual address under the hart's current configuration
    and verify PMP over the full [len]-byte range (default 1). Raises
    [Trap_exn] on any architectural fault. *)

val read_mem : t -> int64 -> int -> int64
(** Translated, PMP-checked read of 1/2/4/8 bytes. *)

val write_mem : t -> int64 -> int -> int64 -> unit

val amo_read_mem : t -> int64 -> int -> int64
(** The read half of an AMO: aligns and translates as a {e store}
    (Store/AMO misaligned, access- and page-fault causes; requires
    write permission), as the spec demands for both halves of an AMO. *)

val fetch_decoded : t -> int64 * Decode.t
(** Fetch and decode the instruction at the current pc, serving from
    the fetch-translation memo and decoded-instruction cache when the
    fast path is enabled and valid. Returns [(raw word, decoded)].
    Behaves exactly like a [translate]d 4-byte read at the pc followed
    by [Decode.decode], in every architecturally visible way. *)

val asid : t -> int
(** Current ASID from (v)satp. *)

val vmid : t -> int
(** Current VMID from hgatp. *)
