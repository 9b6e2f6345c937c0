type t = M | HS | U | VS | VU

let virtualized = function VS | VU -> true | M | HS | U -> false
let level = function M -> 3 | HS | VS -> 1 | U | VU -> 0

let of_level ~virt lvl =
  match (virt, lvl) with
  | false, 3 -> M
  | false, 1 -> HS
  | false, 0 -> U
  | true, 1 -> VS
  | true, 0 -> VU
  | _ -> invalid_arg "Priv.of_level: invalid privilege encoding"

let to_string = function
  | M -> "M"
  | HS -> "HS"
  | U -> "U"
  | VS -> "VS"
  | VU -> "VU"

let pp ppf t = Format.pp_print_string ppf (to_string t)
