(** SHA-256 (FIPS 180-4).

    Used by the Secure Monitor for confidential-VM measurement
    (attestation reports). Incremental interface plus one-shot helpers.
    The compression function works a word at a time and reads whole
    64-byte blocks straight from the caller's string. *)

type ctx

val init : unit -> ctx

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
