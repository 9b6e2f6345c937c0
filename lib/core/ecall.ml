let ext_zion = 0x5A494F4EL (* "ZION" *)
let fid_guest_report = 16L
let fid_guest_random = 17L
let fid_guest_share = 18L
let fid_guest_unshare = 19L
let fid_guest_putchar = 20L
let fid_guest_shutdown = 21L
let fid_guest_relinquish = 22L
let fid_guest_seal = 23L
let fid_guest_unseal = 24L
let fid_guest_chan_send = 25L
let fid_guest_chan_recv = 26L
let sbi_legacy_putchar = 1L
let sbi_legacy_shutdown = 8L

(* The error type is owned by [Sm_error]; re-exported here so ABI
   clients keep writing [Ecall.Invalid_param] etc. *)
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

let error_code = Sm_error.code
let error_to_string = Sm_error.to_string
