(** Confidential-VM migration images (the live-migration capability
    VirTEE advertises, §VI, realised for ZION).

    [Monitor.migrate_out_begin] snapshots a suspended CVM — every
    secure vCPU, the sealed measurement, and all mapped private pages —
    into a blob the *untrusted* hypervisor can carry: the payload is
    encrypted and authenticated under keys derived from the platform
    key, so the hypervisor can move or store it but neither read nor
    alter it. [Monitor.migrate_in_prepare] on the destination verifies
    and decrypts the blob and rebuilds the CVM inside fresh secure
    memory.

    Format: the serialized image in a ["ZMIG2"] blob
    ({!Attest.seal_migration}) with a 16-byte per-session nonce, under
    keys HMAC(platform_key, label). The nonce breaks export determinism:
    without it two exports of an unchanged CVM are byte-identical and
    the untrusted host can correlate them. *)

type vcpu_image = {
  vi_regs : int64 array;  (** 32 GPRs *)
  vi_pc : int64;
  vi_csrs : int64 array;  (** vsstatus..vsatp + hvip (8 values) *)
}

type image = {
  im_vcpus : vcpu_image list;
  im_measurement : string;
  im_pages : (int64 * string) list;  (** (gpa, 4 KiB contents) *)
}

val seal : nonce:string -> image -> string
(** Serialize, encrypt, and authenticate. [nonce] is 16 bytes; longer or
    shorter strings are compressed through the MAC key. The monitor
    draws one per migration session from its DRBG, so two sessions of
    an unchanged CVM never collide. *)

val unseal : string -> (image, string) result
(** Verify and decrypt; [Error] on any tampering or truncation. *)
