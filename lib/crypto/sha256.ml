(* SHA-256 (FIPS 180-4). Blocks go to one of two kernels: the x86-64
   SHA extensions through a C stub (sha256_stubs.c), or the OCaml
   compression function below, a word at a time.

   In the OCaml kernel, only the low 32 bits of a sum are significant,
   and those never depend on bits above them, so a value is masked to
   32 bits only where it is next shifted right and junk above bit 31
   would leak down: the two words a round produces and each expanded
   schedule word. Sigma terms, [ch], [maj] and partial sums may carry
   junk that the next mask drops. *)

let mask = 0xFFFFFFFF

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

module Kernel = struct
  type t = Ocaml | Sha_ni

  external sha_ni_available : unit -> bool = "zion_sha256_sha_ni_available"
  [@@noalloc]

  let active = if sha_ni_available () then Sha_ni else Ocaml
  let name = function Ocaml -> "ocaml" | Sha_ni -> "sha-ni"
  let available = function Ocaml -> true | Sha_ni -> active = Sha_ni
end

(* [n] blocks of [s] from [off] into the state words [h]. The caller
   has checked that they lie inside [s]. *)
external sha_ni_blocks :
  int array -> string -> (int[@untagged]) -> (int[@untagged]) -> unit
  = "zion_sha256_blocks_byte" "zion_sha256_blocks"
[@@noalloc]

type ctx = {
  kernel : Kernel.t;
  h : int array; (* 8 state words *)
  w : int array; (* message schedule scratch *)
  buf : Bytes.t; (* a partial block carried between updates *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
}

let init_on kernel =
  if not (Kernel.available kernel) then
    invalid_arg ("Sha256.init_on: no " ^ Kernel.name kernel ^ " on this host");
  {
    kernel;
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    w = Array.make 64 0;
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
  }

let init () = init_on Kernel.active

(* Word arithmetic. Inside [W.( )] the usual operators act on [int64].
   Local [int64] values that never leave [compress] compile to plain
   machine operations with no tag bit to maintain, which makes the
   rounds faster than on tagged [int]s; a word passed to a function that
   is not inlined would be boxed instead, so everything here inlines. *)
module W = struct
  external ( + ) : int64 -> int64 -> int64 = "%int64_add"
  external ( land ) : int64 -> int64 -> int64 = "%int64_and"
  external ( lor ) : int64 -> int64 -> int64 = "%int64_or"
  external ( lxor ) : int64 -> int64 -> int64 = "%int64_xor"
  external ( lsl ) : int64 -> int -> int64 = "%int64_lsl"
  external ( lsr ) : int64 -> int -> int64 = "%int64_lsr"

  let mask = 0xFFFFFFFFL

  (* [x] (32 bits) with a copy of itself above it: shifting the result
     right by n < 32 leaves x rotated right by n in the low 32 bits. The
     sigmas therefore expect a 32-bit input and leave junk above bit 31
     for the caller's mask. *)
  let[@inline] dup x = x lor (x lsl 32)

  let[@inline] big_sigma0 x =
    let d = dup x in
    d lsr 2 lxor (d lsr 13) lxor (d lsr 22)

  let[@inline] big_sigma1 x =
    let d = dup x in
    d lsr 6 lxor (d lsr 11) lxor (d lsr 25)

  let[@inline] small_sigma0 x =
    let d = dup x in
    d lsr 7 lxor (d lsr 18) lxor (x lsr 3)

  let[@inline] small_sigma1 x =
    let d = dup x in
    d lsr 17 lxor (d lsr 19) lxor (x lsr 10)

  let[@inline] ch e f g = g lxor (e land (f lxor g))
  let[@inline] maj a b c = a land b lor (c land (a lor b))
end

(* [a.(j + i)] as a word. Every index used below is in bounds by
   construction (0..63 into the schedule and constants, 0..7 into the
   state), hence [unsafe_get]. *)
let[@inline] ld a j i = Int64.of_int (Array.unsafe_get a (j + i))

(* One 64-byte block starting at [s.[off]]; the caller has checked that
   it lies inside [s]. The rounds are unrolled by 8: rather than
   shifting eight words along every round, the round is written eight
   times with its variables rotated, so each round assigns only the two
   words it produces. Each round adds the terms that do not depend on
   the previous round first, keeping them off the round-to-round chain. *)
let compress ctx s off =
  let w = ctx.w in
  for i = 0 to 15 do
    w.(i) <- Int32.to_int (String.get_int32_be s (off + (4 * i))) land mask
  done;
  for i = 16 to 63 do
    Array.unsafe_set w i
      (Int64.to_int
         W.(
           (small_sigma1 (ld w i (-2))
           + ld w i (-7)
           + small_sigma0 (ld w i (-15))
           + ld w i (-16))
           land mask))
  done;
  let h = ctx.h in
  let a = ref (ld h 0 0) and b = ref (ld h 0 1) and c = ref (ld h 0 2) in
  let d = ref (ld h 0 3) and e = ref (ld h 0 4) and f = ref (ld h 0 5) in
  let g = ref (ld h 0 6) and hh = ref (ld h 0 7) in
  let next = ref 0 in
  while !next < 64 do
    let j = !next in
    let t = W.(!hh + ld k j 0 + ld w j 0 + ch !e !f !g + big_sigma1 !e) in
    d := W.((!d + t) land mask);
    hh := W.((t + (big_sigma0 !a + maj !a !b !c)) land mask);
    let t = W.(!g + ld k j 1 + ld w j 1 + ch !d !e !f + big_sigma1 !d) in
    c := W.((!c + t) land mask);
    g := W.((t + (big_sigma0 !hh + maj !hh !a !b)) land mask);
    let t = W.(!f + ld k j 2 + ld w j 2 + ch !c !d !e + big_sigma1 !c) in
    b := W.((!b + t) land mask);
    f := W.((t + (big_sigma0 !g + maj !g !hh !a)) land mask);
    let t = W.(!e + ld k j 3 + ld w j 3 + ch !b !c !d + big_sigma1 !b) in
    a := W.((!a + t) land mask);
    e := W.((t + (big_sigma0 !f + maj !f !g !hh)) land mask);
    let t = W.(!d + ld k j 4 + ld w j 4 + ch !a !b !c + big_sigma1 !a) in
    hh := W.((!hh + t) land mask);
    d := W.((t + (big_sigma0 !e + maj !e !f !g)) land mask);
    let t = W.(!c + ld k j 5 + ld w j 5 + ch !hh !a !b + big_sigma1 !hh) in
    g := W.((!g + t) land mask);
    c := W.((t + (big_sigma0 !d + maj !d !e !f)) land mask);
    let t = W.(!b + ld k j 6 + ld w j 6 + ch !g !hh !a + big_sigma1 !g) in
    f := W.((!f + t) land mask);
    b := W.((t + (big_sigma0 !c + maj !c !d !e)) land mask);
    let t = W.(!a + ld k j 7 + ld w j 7 + ch !f !g !hh + big_sigma1 !f) in
    e := W.((!e + t) land mask);
    a := W.((t + (big_sigma0 !b + maj !b !c !d)) land mask);
    next := j + 8
  done;
  h.(0) <- (h.(0) + Int64.to_int !a) land mask;
  h.(1) <- (h.(1) + Int64.to_int !b) land mask;
  h.(2) <- (h.(2) + Int64.to_int !c) land mask;
  h.(3) <- (h.(3) + Int64.to_int !d) land mask;
  h.(4) <- (h.(4) + Int64.to_int !e) land mask;
  h.(5) <- (h.(5) + Int64.to_int !f) land mask;
  h.(6) <- (h.(6) + Int64.to_int !g) land mask;
  h.(7) <- (h.(7) + Int64.to_int !hh) land mask

(* [n] whole blocks of [s] from [off], on the context's kernel. *)
let blocks ctx s off n =
  match ctx.kernel with
  | Kernel.Sha_ni -> sha_ni_blocks ctx.h s off n
  | Kernel.Ocaml ->
      for i = 0 to n - 1 do
        compress ctx s (off + (64 * i))
      done

(* [ctx.buf] is only read as a string for the length of one
   [blocks] call, and not written during it. *)
let compress_buf ctx = blocks ctx (Bytes.unsafe_to_string ctx.buf) 0 1

let update_sub ctx s off len =
  if off < 0 || len < 0 || off > String.length s - len then
    invalid_arg "Sha256.update_sub";
  ctx.total <- ctx.total + len;
  let stop = off + len in
  let pos = ref off in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s off ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := off + take;
    if ctx.buf_len = 64 then begin
      compress_buf ctx;
      ctx.buf_len <- 0
    end
  end;
  (* Whole blocks are read in place, all in one call. *)
  let n = (stop - !pos) / 64 in
  blocks ctx s !pos n;
  pos := !pos + (64 * n);
  let rem = stop - !pos in
  if rem > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 rem;
    ctx.buf_len <- rem
  end

let update ctx s = update_sub ctx s 0 (String.length s)

let finalize ctx =
  let buf = ctx.buf in
  let n = ctx.buf_len + 1 in
  Bytes.set buf ctx.buf_len '\x80';
  (* No room for the 8-byte length: pad out this block and start
     another. *)
  if n > 56 then begin
    Bytes.fill buf n (64 - n) '\x00';
    compress_buf ctx;
    Bytes.fill buf 0 56 '\x00'
  end
  else Bytes.fill buf n (56 - n) '\x00';
  Bytes.set_int64_be buf 56 (Int64.of_int (ctx.total * 8));
  compress_buf ctx;
  let out = Bytes.create 32 in
  Array.iteri
    (fun i v -> Bytes.set_int32_be out (i * 4) (Int32.of_int v))
    ctx.h;
  Bytes.unsafe_to_string out

let digest s =
  let ctx = init () in
  update ctx s;
  finalize ctx

let to_hex s =
  let b = Buffer.create (String.length s * 2) in
  String.iter
    (fun c -> Buffer.add_string b (Printf.sprintf "%02x" (Char.code c)))
    s;
  Buffer.contents b

let hex s = to_hex (digest s)
