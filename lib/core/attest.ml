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

(* ---------- sealed storage ---------- *)

let seal_magic = "ZSEAL"

let seal_keys ~measurement =
  let base = hmac_sha256 ~key:platform_key ("seal:" ^ measurement) in
  (String.sub base 0 16, hmac_sha256 ~key:base "mac")

let pad16 s =
  let r = String.length s mod 16 in
  if r = 0 then s else s ^ String.make (16 - r) '\x00'

let le32 v =
  String.init 4 (fun i -> Char.chr ((v lsr (8 * i)) land 0xff))

let read_le32 s off =
  let v = ref 0 in
  for i = 3 downto 0 do
    v := (!v lsl 8) lor Char.code s.[off + i]
  done;
  !v

(* Blob: magic ‖ le32 plaintext length ‖ iv ‖ ct ‖ tag. The tag covers
   everything before it, the length included: the host stores the blob,
   and a length outside the MAC would let it truncate the plaintext. *)
let seal_data ~measurement data =
  let enc_key, mac_key = seal_keys ~measurement in
  (* SIV-style deterministic IV over the plaintext *)
  let iv = String.sub (hmac_sha256 ~key:mac_key data) 0 16 in
  let ct = Crypto.Aes.cbc_encrypt ~key:enc_key ~iv (pad16 data) in
  let body = seal_magic ^ le32 (String.length data) ^ iv ^ ct in
  body ^ hmac_sha256 ~key:mac_key body

let unseal_data ~measurement blob =
  let hdr = 5 + 4 + 16 in
  if String.length blob < hdr + 32 then Error "sealed blob truncated"
  else if String.sub blob 0 5 <> seal_magic then Error "bad sealed magic"
  else begin
    let enc_key, mac_key = seal_keys ~measurement in
    let data_len = read_le32 blob 5 in
    let iv = String.sub blob 9 16 in
    let ct_len = String.length blob - hdr - 32 in
    if ct_len <= 0 || ct_len mod 16 <> 0 then Error "bad sealed length"
    else begin
      let ct = String.sub blob hdr ct_len in
      let tag = String.sub blob (hdr + ct_len) 32 in
      let body = String.sub blob 0 (hdr + ct_len) in
      if not (constant_time_eq tag (hmac_sha256 ~key:mac_key body)) then
        Error "sealed blob failed authentication (wrong CVM or tampered)"
      else begin
        let padded = Crypto.Aes.cbc_decrypt ~key:enc_key ~iv ct in
        if data_len > String.length padded then Error "inconsistent length"
        else Ok (String.sub padded 0 data_len)
      end
    end
  end
