(** splitmix64 (Steele, Lea & Flood, OOPSLA 2014): the one seeded PRNG
    behind every host-side random decision — the chaos fuzzer's
    schedule, the lossy courier's fault schedule and [Kvm]'s backoff
    jitter. Same seed, same build — same draws. *)

type t

val create : int -> t
(** A generator whose 64-bit counter starts at [seed]. *)

val next_u64 : t -> int64
(** Step the counter by the golden gamma and return its scrambled
    value. *)

val int : t -> int -> int
(** Uniform in [\[0, n)]; [0] without drawing when [n <= 0]. *)

val chained : int64 -> int64 * int64
(** [chained state] is one step of the chained variant, whose state is
    the scrambled value itself rather than a counter: the next state and
    the drawn bits. [Kvm] keeps its backoff stream in this form. *)

val below : int64 -> int -> int
(** [below bits n] reduces drawn [bits] to [\[0, n)] as {!int} does;
    [n] must be positive. *)
