(* Reference SHA-256 for the tests: the original byte-at-a-time
   implementation, frozen. [Crypto.Sha256]'s word-at-a-time kernel must
   give the same digests for every message and every way of feeding
   it. Not linked into any library. *)

(* SHA-256 over 32-bit words. OCaml ints are 63-bit here, so we keep all
   word values masked to 32 bits after every operation. *)

let mask = 0xFFFFFFFF
let lnot32 a = lnot a land mask
let add32 a b = (a + b) land mask
let rotr x n = ((x lsr n) lor (x lsl (32 - n))) land mask

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

type ctx = {
  h : int array; (* 8 state words *)
  buf : Bytes.t; (* 64-byte block buffer *)
  mutable buf_len : int;
  mutable total : int; (* total message bytes *)
  w : int array; (* message schedule scratch *)
}

let init () =
  {
    h =
      [|
        0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
        0x9b05688c; 0x1f83d9ab; 0x5be0cd19;
      |];
    buf = Bytes.create 64;
    buf_len = 0;
    total = 0;
    w = Array.make 64 0;
  }

let compress ctx block off =
  let w = ctx.w in
  for i = 0 to 15 do
    let base = off + (i * 4) in
    w.(i) <-
      (Char.code (Bytes.get block base) lsl 24)
      lor (Char.code (Bytes.get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.get block (base + 2)) lsl 8)
      lor Char.code (Bytes.get block (base + 3))
  done;
  for i = 16 to 63 do
    let s0 =
      rotr w.(i - 15) 7 lxor rotr w.(i - 15) 18 lxor (w.(i - 15) lsr 3)
    in
    let s1 =
      rotr w.(i - 2) 17 lxor rotr w.(i - 2) 19 lxor (w.(i - 2) lsr 10)
    in
    w.(i) <- add32 (add32 w.(i - 16) s0) (add32 w.(i - 7) s1)
  done;
  let h = ctx.h in
  let a = ref h.(0) and b = ref h.(1) and c = ref h.(2) and d = ref h.(3) in
  let e = ref h.(4) and f = ref h.(5) and g = ref h.(6) and hh = ref h.(7) in
  for i = 0 to 63 do
    let s1 = rotr !e 6 lxor rotr !e 11 lxor rotr !e 25 in
    let ch = !e land !f lxor (lnot32 !e land !g) in
    let t1 = add32 (add32 !hh s1) (add32 (add32 ch k.(i)) w.(i)) in
    let s0 = rotr !a 2 lxor rotr !a 13 lxor rotr !a 22 in
    let maj = !a land !b lxor (!a land !c) lxor (!b land !c) in
    let t2 = add32 s0 maj in
    hh := !g;
    g := !f;
    f := !e;
    e := add32 !d t1;
    d := !c;
    c := !b;
    b := !a;
    a := add32 t1 t2
  done;
  h.(0) <- add32 h.(0) !a;
  h.(1) <- add32 h.(1) !b;
  h.(2) <- add32 h.(2) !c;
  h.(3) <- add32 h.(3) !d;
  h.(4) <- add32 h.(4) !e;
  h.(5) <- add32 h.(5) !f;
  h.(6) <- add32 h.(6) !g;
  h.(7) <- add32 h.(7) !hh

let update ctx s =
  let len = String.length s in
  ctx.total <- ctx.total + len;
  let pos = ref 0 in
  (* Top up a partial block first. *)
  if ctx.buf_len > 0 then begin
    let take = min (64 - ctx.buf_len) len in
    Bytes.blit_string s 0 ctx.buf ctx.buf_len take;
    ctx.buf_len <- ctx.buf_len + take;
    pos := take;
    if ctx.buf_len = 64 then begin
      compress ctx ctx.buf 0;
      ctx.buf_len <- 0
    end
  end;
  while len - !pos >= 64 do
    Bytes.blit_string s !pos ctx.buf 0 64;
    compress ctx ctx.buf 0;
    pos := !pos + 64
  done;
  let rem = len - !pos in
  if rem > 0 then begin
    Bytes.blit_string s !pos ctx.buf 0 rem;
    ctx.buf_len <- rem
  end

let finalize ctx =
  let bit_len = ctx.total * 8 in
  let pad_len =
    let r = (ctx.total + 1) mod 64 in
    if r <= 56 then 56 - r + 1 else 64 - r + 56 + 1
  in
  let pad = Bytes.make (pad_len + 8) '\x00' in
  Bytes.set pad 0 '\x80';
  for i = 0 to 7 do
    Bytes.set pad
      (pad_len + i)
      (Char.chr ((bit_len lsr (8 * (7 - i))) land 0xff))
  done;
  update ctx (Bytes.to_string pad);
  assert (ctx.buf_len = 0);
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    let v = ctx.h.(i) in
    Bytes.set out (i * 4) (Char.chr ((v lsr 24) land 0xff));
    Bytes.set out ((i * 4) + 1) (Char.chr ((v lsr 16) land 0xff));
    Bytes.set out ((i * 4) + 2) (Char.chr ((v lsr 8) land 0xff));
    Bytes.set out ((i * 4) + 3) (Char.chr (v land 0xff))
  done;
  Bytes.to_string out

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
