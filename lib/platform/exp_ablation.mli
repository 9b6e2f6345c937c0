(** Ablations beyond the paper's tables: design-choice experiments for
    the mechanisms DESIGN.md calls out.

    - {b Block-size sweep}: secure-memory block size vs the fraction of
      faults served by the vCPU page cache (stage 1) and the resulting
      average fault latency.
    - {b Page cache off}: every fault pays the stage-2 list grab.
    - {b Hardened entry}: cost of sweeping the hypervisor's shared
      subtree on every CVM entry, as a function of mapped shared pages.
    - {b Scalability}: concurrent CVMs under ZION's pool (paging) vs a
      CURE-style design that burns one PMP region per enclave. *)

type block_size_point = {
  block_kb : int;
  stage1_pct : float;
  avg_fault_cycles : float;
}

val block_size_sweep : unit -> block_size_point list
(** Touch 512 pages under block sizes 64 KiB – 1 MiB. *)

type cache_ablation = {
  with_cache_avg : float;
  without_cache_avg : float;
  penalty_pct : float;
}

val page_cache_ablation : unit -> cache_ablation

type hardened_point = { shared_pages : int; entry_cycles : int }

val hardened_entry_costs : unit -> hardened_point list
(** Entry cost with shared-subtree validation for 0–512 mapped pages. *)

type scalability = {
  zion_cvms_run : int;
  cure_style_limit : int;
      (** enclaves a region-per-enclave design fits in 16 PMP entries
          (paper: 13) *)
}

val scalability : ?cvms:int -> unit -> scalability
(** Actually boots and runs [cvms] (default 24) concurrent CVMs. *)
