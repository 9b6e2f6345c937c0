(** Simulator fast-path A/B benchmark (§ DESIGN 14).

    The other experiments measure the modelled guest; this one measures
    the interpreter itself. Each workload is a real guest loop assembled
    with [Riscv.Asm] and stepped instruction by instruction, with the
    fast path off and on. The fast path must be architecturally
    invisible: registers, pc, minstret and the full cycle ledger must
    match exactly on every run of both arms; only the wall clock may
    differ. *)

type workload =
  | Rv8_mix  (** mul/xor/store/load/shift/AMO mix, machine mode, bare *)
  | Coremark_mix  (** pointer-chase + CRC-rotate + branchy state machine *)
  | Rv8_mix_paged  (** the rv8 mix in HS mode under an Sv39 megapage *)

val all : workload list
val name : workload -> string

type state = {
  clock : int;
  categories : (string * int) list;
  regs : int64 array;
  pc : int64;
  minstret : int64;
}
(** Everything architecturally visible after a run, including the full
    cycle-ledger attribution. Compared structurally between arms. *)

type run = {
  executed : int;
  seconds : float;
  state : state;
  stats : Riscv.Hart.fast_path_stats;
      (** the hart's fast-path counters at the end of the run (all zero
          with the fast path off) *)
}

val run : workload -> fast:bool -> steps:int -> run
(** One measured run on a fresh single-hart machine. *)

type ab = {
  workload : workload;
  baseline_ips : float;  (** from the slow arm's median time *)
  fast_ips : float;  (** from the fast arm's median time *)
  speedup : float;  (** median per-pair speedup *)
  speedup_p25 : float;
  speedup_p75 : float;
  identical : bool;  (** every run's [state] equal *)
  fast_stats : Riscv.Hart.fast_path_stats;  (** the fast arm's counters *)
}

val pairs : int
(** Interleaved pairs per A/B comparison (5). *)

val ab_compare : workload -> steps:int -> ab
(** Time [workload] over {!pairs} interleaved pairs of runs of [steps]
    steps ({!Metrics.Stats.interleaved_pairs}): each arm's time in a
    pair is the faster of its two runs, and the speedup is the median
    over pairs. Identity is checked on every run. *)
