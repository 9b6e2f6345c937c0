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

type error = Sm_error.t =
  | Invalid_param
  | Denied
  | No_memory
  | Not_found
  | Bad_state
  | Invalid_address
  | Already_exists
  | No_pending_exit
  | Quarantined
  | Internal of string
      (** See {!Sm_error} for the full fault-model contract: every
          host-interface call returns one of these, never raises. *)

val error_code : error -> int64
(** Negative SBI-style error codes ({!Sm_error.code}). *)

val error_to_string : error -> string
