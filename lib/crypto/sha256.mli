(** SHA-256 (FIPS 180-4).

    Used by the Secure Monitor for confidential-VM measurement
    (attestation reports). Incremental interface plus one-shot helpers.
    Whole 64-byte blocks are read straight from the caller's string,
    and every run of them that one {!update_sub} holds goes to the block
    function in one call.

    The block function is one of two kernels, chosen once when this
    module initialises ({!Kernel.active}):
    - [Sha_ni], a C stub on the x86-64 SHA extensions
      ([sha256rnds2], [sha256msg1], [sha256msg2]), when CPUID reports
      SHA, SSSE3 and SSE4.1;
    - [Ocaml], the compression function in OCaml, a word at a time,
      everywhere else (other CPUs and other architectures).

    Both give the same digest bytes; only host time differs. No option,
    environment variable or configuration field selects a kernel. *)

module Kernel : sig
  type t = Ocaml | Sha_ni

  val active : t
  (** The kernel of every context that {!init} makes, picked from
      CPUID. *)

  val name : t -> string
  (** ["ocaml"] or ["sha-ni"]. *)

  val available : t -> bool
  (** [Ocaml] always; [Sha_ni] when it is {!active}. *)
end

type ctx

val init : unit -> ctx
(** A context on {!Kernel.active}. *)

val init_on : Kernel.t -> ctx
(** A context on the named kernel, so that tests can check each kernel
    against a reference on any host that has it. Raises
    [Invalid_argument] when the host lacks it. *)

val update : ctx -> string -> unit
(** Absorb a whole string; same as [update_sub ctx s 0 (String.length s)]. *)

val update_sub : ctx -> string -> int -> int -> unit
(** [update_sub ctx s off len] absorbs bytes [off .. off + len - 1] of
    [s] without copying the slice. Raises [Invalid_argument] unless
    [0 <= off], [0 <= len] and [off + len <= String.length s]; the
    context is untouched when it raises. *)

val finalize : ctx -> string
(** 32-byte binary digest. The context must not be reused afterwards. *)

val digest : string -> string
(** One-shot 32-byte binary digest. *)

val hex : string -> string
(** One-shot digest rendered as 64 lowercase hex characters. *)

val to_hex : string -> string
(** Render an arbitrary binary string as lowercase hex. *)
