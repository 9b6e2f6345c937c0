(** Measurement and attestation.

    The Secure Monitor measures a confidential VM while it is being
    populated: every [load_image] chunk extends a SHA-256 context with
    (gpa, data), and [finalize] seals the measurement. Reports bind the
    measurement to a caller-supplied nonce under a platform key (an
    HMAC-SHA256, standing in for the device's sealed signing key). *)

type measurement_ctx

val start : unit -> measurement_ctx

val extend : measurement_ctx -> gpa:int64 -> string -> unit
(** Measure one chunk loaded at [gpa]: the context absorbs ["page:"],
    then [gpa] and the chunk's length as 8-byte little-endian words, then
    the chunk. Same as [extend_sub] over the whole string. *)

val extend_sub : measurement_ctx -> gpa:int64 -> string -> int -> int -> unit
(** [extend_sub m ~gpa s off len] measures bytes [off .. off + len - 1]
    of [s] as if that slice had been passed to [extend], without copying
    it. Raises [Invalid_argument] when [off, len] is not a slice of [s]
    or the measurement is already sealed; the context is untouched
    then. *)

val extend_config : measurement_ctx -> string -> unit
val seal : measurement_ctx -> string
(** 32-byte measurement; the context must not be extended afterwards. *)

type report = {
  cvm_id : int;
  epoch : int;
      (** the CVM's lifecycle epoch at report time, MAC-bound so a
          stale pre-migration report cannot be replayed to a verifier
          that demands the current epoch *)
  measurement : string;
  nonce : string;
  mac : string;  (** HMAC over the rest under the platform key *)
}

val platform_key : string
(** Simulated device key (a real deployment derives it from hardware;
    fixed here for reproducibility). Any code that links this library
    can read it, the hypervisor library included. *)

val max_nonce_len : int
(** 64 bytes — the longest nonce a report will bind. *)

val valid_nonce : string -> bool
(** 1..[max_nonce_len] bytes. The [Monitor] entry points reject
    anything else with [Ecall.Invalid_param] before reaching
    [make_report]; the raise below is the defence-in-depth backstop. *)

val make_report :
  cvm_id:int -> epoch:int -> measurement:string -> nonce:string -> report
(** Raises [Invalid_argument] when the nonce fails [valid_nonce]. *)

val verify_report : report -> bool
(** MAC check in constant time (per candidate length): rejection cost
    does not depend on how many MAC bytes matched. *)

val report_to_bytes : report -> string
val hmac_sha256 : key:string -> string -> string

val constant_time_eq : string -> string -> bool
(** Length check, then a full fixed-time scan — used for every MAC
    comparison (report, seal and migration blobs, migration messages)
    so test-visible timing cannot distinguish near-miss MACs. *)

(* {2 Sealed blobs}

   Every blob the SM hands the host is one envelope: a clear magic, the
   plaintext length as a little-endian u32, a clear nonce, a 16-byte
   synthetic IV (HMAC of nonce and plaintext), the AES-128-CBC
   ciphertext of the zero-padded plaintext, and an HMAC-SHA256 tag over
   everything before it (encrypt-then-MAC). The host can store or carry
   a blob but neither read nor alter it. Opening fails on a wrong
   magic, truncation, any tampering (the length field included) or a
   blob sealed under other keys.

   Sealed storage ([ZSEAL]) binds data to a CVM's measurement: its keys
   are derived from the platform key {e and} the measurement, so only a
   CVM running the identical image can unseal. It carries no nonce. *)

val seal_data : measurement:string -> string -> string
(** Seal a byte string for CVMs with the given measurement. *)

val unseal_data : measurement:string -> string -> (string, string) result
(** Recover the plaintext; fails on tampering, truncation, or a
    measurement mismatch. *)

val seal_migration : nonce:string -> string -> string
(** Seal a migration image payload ({!Migrate}) as a [ZMIG2] blob under
    the platform's migration keys. [nonce] is 16 bytes; longer or
    shorter strings are compressed through the MAC key. *)

val unseal_migration : string -> (string, string) result
(** Verify and decrypt a [ZMIG2] blob back to its payload. *)
