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

type error =
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

let error_code = function
  | Invalid_param -> -3L
  | Denied -> -4L
  | No_memory -> -5L
  | Not_found -> -6L
  | Bad_state -> -7L
  | Invalid_address -> -8L
  | Already_exists -> -9L
  | No_pending_exit -> -10L
  | Quarantined -> -11L
  | Internal _ -> -12L

let error_to_string = function
  | Invalid_param -> "invalid parameter"
  | Denied -> "access denied"
  | No_memory -> "out of secure memory"
  | Not_found -> "no such object"
  | Bad_state -> "object in wrong state"
  | Invalid_address -> "address out of range or misaligned"
  | Already_exists -> "object already exists"
  | No_pending_exit -> "no pending exit"
  | Quarantined -> "CVM is quarantined"
  | Internal msg ->
      if msg = "" then "internal monitor fault"
      else "internal monitor fault: " ^ msg
