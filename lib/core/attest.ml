type measurement_ctx = { ctx : Crypto.Sha256.ctx; mutable sealed : bool }

let start () = { ctx = Crypto.Sha256.init (); sealed = false }

let check_open m name =
  if m.sealed then invalid_arg (name ^ ": measurement already sealed")

let le64 v =
  String.init 8 (fun i ->
      Char.chr (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))

let extend_sub m ~gpa data off len =
  if off < 0 || len < 0 || off > String.length data - len then
    invalid_arg "Attest.extend_sub: slice outside the string";
  check_open m "Attest.extend_sub";
  Crypto.Sha256.update m.ctx "page:";
  Crypto.Sha256.update m.ctx (le64 gpa);
  Crypto.Sha256.update m.ctx (le64 (Int64.of_int len));
  Crypto.Sha256.update_sub m.ctx data off len

let extend m ~gpa data = extend_sub m ~gpa data 0 (String.length data)

let extend_config m config =
  check_open m "Attest.extend_config";
  Crypto.Sha256.update m.ctx "conf:";
  Crypto.Sha256.update m.ctx config

let seal m =
  check_open m "Attest.seal";
  m.sealed <- true;
  Crypto.Sha256.finalize m.ctx

type report = {
  cvm_id : int;
  epoch : int;
  measurement : string;
  nonce : string;
  mac : string;
}

let platform_key = Crypto.Sha256.digest "zion-simulated-platform-key-v1"

(* Standard HMAC construction over SHA-256 (64-byte block size). *)
let hmac_sha256 ~key msg =
  let block = 64 in
  let key =
    if String.length key > block then Crypto.Sha256.digest key else key
  in
  let key = key ^ String.make (block - String.length key) '\x00' in
  let xor_with pad =
    String.init block (fun i -> Char.chr (Char.code key.[i] lxor pad))
  in
  Crypto.Sha256.digest
    (xor_with 0x5c ^ Crypto.Sha256.digest (xor_with 0x36 ^ msg))

(* The lifecycle epoch is MAC'd alongside the id so a report minted
   before a migration lock/release cannot be replayed to a verifier
   that checked the peer afterwards (the channel-accept freshness
   gate). Nonce length is bounded here as a defence-in-depth backstop;
   the [Monitor] entry points reject out-of-range nonces with a typed
   error before reaching this point. *)
let max_nonce_len = 64

let valid_nonce nonce =
  let n = String.length nonce in
  n >= 1 && n <= max_nonce_len

let body ~cvm_id ~epoch ~measurement ~nonce =
  Printf.sprintf "zion-report-v2:%d:%d:" cvm_id epoch
  ^ measurement ^ ":" ^ nonce

let make_report ~cvm_id ~epoch ~measurement ~nonce =
  if not (valid_nonce nonce) then
    invalid_arg "Attest.make_report: nonce must be 1..64 bytes";
  let mac =
    hmac_sha256 ~key:platform_key (body ~cvm_id ~epoch ~measurement ~nonce)
  in
  { cvm_id; epoch; measurement; nonce; mac }

let constant_time_eq a b =
  String.length a = String.length b
  && begin
       let acc = ref 0 in
       String.iteri
         (fun i c -> acc := !acc lor (Char.code c lxor Char.code b.[i]))
         a;
       !acc = 0
     end

(* Constant-time MAC comparison: a near-miss MAC takes exactly as long
   to reject as a wildly wrong one, so timing cannot be used as a
   byte-by-byte forgery oracle. *)
let verify_report r =
  constant_time_eq r.mac
    (hmac_sha256 ~key:platform_key
       (body ~cvm_id:r.cvm_id ~epoch:r.epoch ~measurement:r.measurement
          ~nonce:r.nonce))

let report_to_bytes r =
  body ~cvm_id:r.cvm_id ~epoch:r.epoch ~measurement:r.measurement
    ~nonce:r.nonce
  ^ r.mac

(* ---------- the sealing envelope ---------- *)

(* Every blob the SM hands the host is this one construction; only the
   magic, the nonce length and the keys differ between formats. *)
type envelope = {
  magic : string;
  nonce_len : int;
  enc_key : string;
  mac_key : string;
}

let pad16 s =
  let r = String.length s mod 16 in
  if r = 0 then s else s ^ String.make (16 - r) '\x00'

(* Blob: magic ‖ le32 plaintext length ‖ nonce ‖ iv ‖ ct ‖ tag,
   encrypt-then-MAC. The IV is synthetic (SIV-style): a MAC of nonce
   and plaintext. The tag covers everything before it, the length
   included: the host stores the blob, and a length outside the MAC
   would let it truncate the plaintext or grow it into the padding. *)
let seal_envelope env ~nonce data =
  assert (String.length nonce = env.nonce_len);
  let iv = String.sub (hmac_sha256 ~key:env.mac_key (nonce ^ data)) 0 16 in
  let ct = Crypto.Aes.cbc_encrypt ~key:env.enc_key ~iv (pad16 data) in
  let b = Buffer.create (String.length ct + 80) in
  Buffer.add_string b env.magic;
  Wire.put_u32 b (String.length data);
  Buffer.add_string b nonce;
  Buffer.add_string b iv;
  Buffer.add_string b ct;
  Buffer.add_string b (hmac_sha256 ~key:env.mac_key (Buffer.contents b));
  Buffer.contents b

let open_envelope env blob =
  let mlen = String.length env.magic in
  let hdr = mlen + 4 + env.nonce_len + 16 in
  let ct_len = String.length blob - hdr - 32 in
  let fail what = Error (env.magic ^ " blob: " ^ what) in
  if ct_len < 0 then fail "truncated"
  else if String.sub blob 0 mlen <> env.magic then fail "bad magic"
  else if ct_len = 0 || ct_len mod 16 <> 0 then fail "bad ciphertext length"
  else begin
    let body = String.sub blob 0 (hdr + ct_len) in
    let tag = String.sub blob (hdr + ct_len) 32 in
    if not (constant_time_eq tag (hmac_sha256 ~key:env.mac_key body)) then
      fail "failed authentication (wrong key or tampered)"
    else begin
      let len = Wire.get_u32 blob mlen in
      let iv = String.sub blob (hdr - 16) 16 in
      let padded =
        Crypto.Aes.cbc_decrypt ~key:env.enc_key ~iv (String.sub blob hdr ct_len)
      in
      if len > String.length padded then fail "inconsistent length"
      else Ok (String.sub padded 0 len)
    end
  end

(* ---------- sealed storage ---------- *)

(* Keys bound to the measurement: only a CVM running the identical image
   derives them. No nonce: sealing is deterministic per plaintext. *)
let storage_envelope ~measurement =
  let base = hmac_sha256 ~key:platform_key ("seal:" ^ measurement) in
  {
    magic = "ZSEAL";
    nonce_len = 0;
    enc_key = String.sub base 0 16;
    mac_key = hmac_sha256 ~key:base "mac";
  }

let seal_data ~measurement data =
  seal_envelope (storage_envelope ~measurement) ~nonce:"" data

let unseal_data ~measurement blob =
  open_envelope (storage_envelope ~measurement) blob

(* ---------- migration images ---------- *)

(* Platform-wide keys, so the destination monitor can open the image. A
   purely plaintext-derived SIV is deterministic: two exports of an
   unchanged CVM would yield byte-identical blobs, letting the host
   correlate them (and detect that a guest made no progress between
   snapshots). Every seal therefore mixes a 16-byte session nonce into
   both the IV and the tag; the nonce travels in the clear header — it
   carries no secret, it only breaks determinism. *)
let migration_envelope =
  {
    magic = "ZMIG2";
    nonce_len = 16;
    enc_key = String.sub (hmac_sha256 ~key:platform_key "migrate-enc") 0 16;
    mac_key = hmac_sha256 ~key:platform_key "migrate-mac";
  }

let seal_migration ~nonce payload =
  let env = migration_envelope in
  let nonce =
    if String.length nonce = env.nonce_len then nonce
    else
      String.sub
        (hmac_sha256 ~key:env.mac_key ("nonce:" ^ nonce))
        0 env.nonce_len
  in
  seal_envelope env ~nonce payload

let unseal_migration blob = open_envelope migration_envelope blob
