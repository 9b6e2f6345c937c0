(** Simulator fast-path A/B benchmark (§ DESIGN 14).

    The other experiments measure the modelled guest; this one measures
    the interpreter itself. Each workload is a real guest loop assembled
    with [Riscv.Asm] and stepped instruction by instruction — once with
    the fast path off, once on. The fast path must be architecturally
    invisible: registers, pc, minstret and the full cycle ledger must
    match exactly between the two arms; only the wall clock may differ. *)

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
  baseline_ips : float;
  fast_ips : float;
  speedup : float;
  identical : bool;  (** [state] equal between the two arms *)
  fast_stats : Riscv.Hart.fast_path_stats;  (** the fast arm's counters *)
}

val ab_compare : workload -> steps:int -> ab
(** Run [workload] with the fast path off then on; compare. *)
