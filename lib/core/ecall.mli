(** The Secure Monitor's ECALL ABI.

    Two interfaces, as in the paper's Figure 1: a host-side interface
    the hypervisor uses to drive confidential-VM lifecycles, and a
    guest-side interface confidential VMs use for measurement reports,
    randomness, and shared-memory registration. The host side is the
    functions of [Monitor], which the simulated hypervisor calls
    directly in place of an [ecall] from HS, so only the guest side has
    function identifiers. They live in a vendor extension range; guests
    place the extension id in a7 and the function id in a6, SBI-style. *)

val ext_zion : int64
(** Vendor extension id (a7). *)

(* Guest-side function ids *)
val fid_guest_report : int64
val fid_guest_random : int64
val fid_guest_share : int64
val fid_guest_unshare : int64
val fid_guest_putchar : int64
val fid_guest_shutdown : int64
val fid_guest_relinquish : int64
val fid_guest_seal : int64
val fid_guest_unseal : int64

val fid_guest_chan_send : int64
(** Publish a message into an attested inter-CVM channel ring
    (a0 = channel id, a1 = source GPA, a2 = length). *)

val fid_guest_chan_recv : int64
(** Consume the peer's latest message after Check-after-Load
    validation (a0 = channel id, a1 = destination GPA, a2 = max
    length); returns the delivered length, 0 when nothing new. *)

(* SBI legacy ids the guest kernel may also use *)
val sbi_legacy_putchar : int64
val sbi_legacy_shutdown : int64

(** {2 The typed error ABI}

    Every host-interface entry point of the monitor is {e total}: no
    hypervisor-supplied input — bad CVM ids, wild addresses, wrong
    lifecycle order, garbage blobs — may raise through the SM. Instead
    each failure maps to one of the codes below, mirroring the style of
    the SBI specification and the CoVE TSM / Keystone SM error ABIs.
    Entry points validate their arguments for precise codes; the
    monitor's [host_call] wrapper is the one backstop that turns an
    escaped exception into [Internal] (DESIGN.md §8).

    Codes [-3 .. -7] predate the hostile-host hardening work and stay
    wire-stable; the remaining codes extend the ABI for it (see
    DESIGN.md "Fault model & SM survivability"). *)

type error =
  | Invalid_param  (** a malformed argument (count, size, flag) *)
  | Denied  (** the caller may not perform this operation *)
  | No_memory  (** the secure pool is exhausted *)
  | Not_found  (** no object with that identifier *)
  | Bad_state  (** the object exists but its lifecycle forbids the call *)
  | Invalid_address  (** an address outside the legal range or misaligned *)
  | Already_exists  (** the object or mapping is already present *)
  | No_pending_exit  (** a resume/reg-transfer call with no exit pending *)
  | Quarantined
      (** the CVM was quarantined after a host protocol violation; only
          [destroy_cvm] is accepted *)
  | Internal of string
      (** the SM caught an internal fault servicing the call and unwound
          safely; the message is diagnostic only and not part of the
          numeric ABI *)

val error_code : error -> int64
(** Negative SBI-style error code; [Internal] collapses to one code. *)

val error_to_string : error -> string
