(** Instruction-class accounting for macro workloads.

    The macro benchmarks (RV8, CoreMark, Redis, IOZone) execute their
    algorithms for real in OCaml; each kernel reports the dynamic
    instruction mix of the equivalent RV64 inner loops as an [Opcount],
    which the cycle model prices per class. A {e locality} descriptor
    summarises the kernel's hot working set — it determines how much
    TLB/cache refill a confidential VM pays after each world switch's
    flush. *)

type t = {
  mutable alu : int;
  mutable mul : int;
  mutable div : int;
  mutable load : int;
  mutable store : int;
  mutable branch : int;
  mutable jump : int;
}

val zero : unit -> t

val copy : t -> t

val diff : t -> t -> t
(** [diff after before] is the mix accumulated between two snapshots
    of one counter. *)

val add : t -> t -> unit
(** [add acc x] accumulates [x] into [acc]. *)

val add_scaled : t -> t -> int -> unit
(** [add_scaled acc x n] accumulates [n] copies of [x]. *)

val total : t -> int
(** Total dynamic instructions. *)

val cycles : Riscv.Cost.t -> t -> int
(** Price the mix under a cost model. *)

val scale : t -> float -> t
(** Multiply every class count (replication to paper scale). *)

type locality = {
  hot_pages : int;  (** distinct pages re-touched between switches *)
  hot_dlines : int;  (** hot D-cache lines *)
  hot_ilines : int;  (** hot I-cache lines *)
}

val refill_cycles : Riscv.Cost.t -> locality -> int
(** Post-switch refill cost: TLB walks for the hot pages plus D- and
    I-cache line refills, each bounded by the structure's capacity. *)

val pp : Format.formatter -> t -> unit
