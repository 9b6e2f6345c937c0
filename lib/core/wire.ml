(* Little-endian fields and one bounds-checked reader for the monitor's
   byte formats: the sealed envelope's header (Attest), migration image
   payloads (Migrate) and migration protocol packets (Migrate_proto).
   Every reader parses bytes the host controls, so [parse] is total: a
   short field, a [reject]ed value or a parser bug all land in [Error],
   never in an exception that escapes through the host ABI. *)

let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF

exception Malformed of string

let reject msg = raise (Malformed msg)

type reader = { s : string; mutable pos : int }

(* Claim the next [n] bytes, returning their offset. *)
let take r n =
  if n < 0 || r.pos + n > String.length r.s then reject "truncated";
  let at = r.pos in
  r.pos <- at + n;
  at

let u8 r = Char.code r.s.[take r 1]
let u32 r = get_u32 r.s (take r 4)
let u64 r = String.get_int64_le r.s (take r 8)
let bytes r n = String.sub r.s (take r n) n
let at_end r = r.pos = String.length r.s

let parse s f =
  match f { s; pos = 0 } with
  | v -> Ok v
  | exception Malformed msg -> Error msg
  | exception e -> Error ("malformed: " ^ Printexc.to_string e)
