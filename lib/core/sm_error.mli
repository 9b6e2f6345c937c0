(** The Secure Monitor's typed error ABI.

    Every host-interface entry point of the monitor is {e total}: no
    hypervisor-supplied input — bad CVM ids, wild addresses, wrong
    lifecycle order, garbage blobs — may raise through the SM. Instead
    each failure maps to one of the codes below, mirroring the style of
    the SBI specification and the CoVE TSM / Keystone SM error ABIs.
    Entry points validate their arguments for precise codes; the
    monitor's [host_call] wrapper is the one backstop that turns an
    escaped exception into [Internal] (DESIGN.md §8).

    Codes [-3 .. -7] predate this module and stay wire-stable; the
    remaining codes extend the ABI for the hostile-host hardening work
    (see DESIGN.md "Fault model & SM survivability"). *)

type t =
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

val code : t -> int64
(** Negative SBI-style error code; [Internal] collapses to one code. *)

val to_string : t -> string
