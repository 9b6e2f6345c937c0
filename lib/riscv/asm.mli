(** Instruction encoder: the inverse of [Decode.decode].

    Used to assemble the bare-metal guest programs run in tests and
    examples. [encode] produces the 32-bit instruction word; [program]
    lays out a sequence as little-endian bytes ready to be written to
    guest memory.

    Convenience register names follow the ABI ([zero]=x0, [ra]=x1,
    [sp]=x2, [a0..a7]=x10..x17, [t0..t2]=x5..x7, [s0/s1]). *)

val encode : Decode.t -> int64
(** Raises [Invalid_argument] for immediates or registers out of range,
    and for [Decode.Illegal]. *)

val program : Decode.t list -> string
(** Little-endian byte image of the instruction sequence. *)

(* Register names *)
val zero : int
val ra : int
val sp : int
val gp : int
val tp : int
val t0 : int
val t1 : int
val t2 : int
val s0 : int
val s1 : int
val a0 : int
val a1 : int
val a2 : int
val a3 : int
val a4 : int
val a5 : int
val a6 : int
val a7 : int

(* Common pseudo-instructions *)
val li : int -> int64 -> Decode.t list
(** Load a (possibly wide) immediate using lui/addi/slli sequences. *)

val j : int64 -> Decode.t
(** Unconditional relative jump. *)

val ret : Decode.t
