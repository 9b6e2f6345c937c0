(** §V.B — CVM mode-switching experiments.

    Both experiments drive a real confidential VM on the simulated hart
    and read the per-switch cycle record out of the Secure Monitor.

    1. Shared-vCPU optimisation (§V.B.1): 200 MMIO-triggered entry/exit
       pairs with the shared vCPU enabled vs disabled.
    2. Short-path vs long-path (§V.B.2): 200 timer-triggered entry/exit
       pairs under ZION's single-hop switch vs the secure-hypervisor
       long path. *)

type switch_stats = {
  entry_mean : float;
  exit_mean : float;
  samples : int;
  attribution : (string * int) list;
      (** per-category cycle deltas over the measured run (a
          [Metrics.Ledger] snapshot diff), sorted by descending delta —
          where the switch cycles actually went *)
}

val mmio_program : iterations:int -> Riscv.Decode.t list
(** The MMIO-load guest used by [measure_mmio_switches], exported so the
    tracing front end can replay the same workload under a recorder. *)

val measure_mmio_switches : shared_vcpu:bool -> iterations:int -> switch_stats
(** MMIO-triggered switches under the given vCPU-transfer mechanism. *)

type tlb_counters = {
  tlb_hits : int;
  tlb_misses : int;
  tlb_flushes : int;
  tlb_hit_rate : float;  (** hits / (hits + misses), 0 when idle *)
}

type mode_stats = { sw : switch_stats; tlb : tlb_counters }

val measure_timer_switches :
  config:Zion.Monitor.config -> iterations:int -> mode_stats
(** Timer-triggered switches under [config] — the short or long path
    ([long_path]), with the VMID-tagged TLB retention fast path on or
    off ([tlb_retention]) — plus the harts' TLB counters over the
    measured loop (stats reset after setup). With retention on, the
    entry+exit pair should be cheaper by two [tlb_full_flush] charges
    and the hit rate near 1 once warm. *)

type report = {
  shared_on : switch_stats;
  shared_off : switch_stats;
  short_path : switch_stats;
  long_path : switch_stats;
}

val run : ?iterations:int -> unit -> report
(** Default 200 iterations, as in the paper. *)

val paper : (string * float) list
(** The paper's numbers for side-by-side printing. *)
