(** Table I (RV8 benchmarks) and the CoreMark experiment (§V.D).

    Each kernel executes for real at simulation scale; its measured
    instruction mix is replicated up to the paper's input size (fixed so
    the normal-VM arm lands on Table I's baseline cycle count) and both
    arms are priced by the shared event model. The confidential arm's
    overhead then *emerges* from its timer-tick path (world switch +
    TLB/L1 refill) — it is not an input. *)

type row = {
  name : string;
  checksum : string;
  normal_gcycles : float;
  cvm_gcycles : float;
  overhead_pct : float;
  paper_overhead_pct : float;
}

val run_table1 : unit -> row list
(** All eight RV8 kernels at simulation scale 1. *)

val average_overhead : row list -> float

type coremark = {
  crc_ok : bool;
  normal_score : float;
  cvm_score : float;
  drop_pct : float;
}

val run_coremark : unit -> coremark
(** Three measured CoreMark iterations, replicated to a paper-length
    run. *)

val paper_table1 : (string * float * float) list
(** (name, normal-VM 10^9 cycles, CVM overhead %) from Table I. *)

val paper_coremark : float * float
(** (2047.6, 1992.3). *)
