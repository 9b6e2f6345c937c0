(** The one table that splits simulated cycles by layer: each ledger
    category belongs to exactly one library. *)

type layer = Riscv | Zion | Hypervisor

val all : layer list

val index : layer -> int
(** Position in [all]. *)

exception Unmapped of string
(** A ledger category the table does not know; the run must fail. *)

val of_category : string -> layer
(** Raises [Unmapped] for a category missing from the table. *)
