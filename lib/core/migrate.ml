type vcpu_image = {
  vi_regs : int64 array;
  vi_pc : int64;
  vi_csrs : int64 array;
}

type image = {
  im_vcpus : vcpu_image list;
  im_measurement : string;
  im_pages : (int64 * string) list;
}

let magic = "ZMIG2"
let payload_magic = "ZCVM"

let enc_key =
  String.sub (Attest.hmac_sha256 ~key:Attest.platform_key "migrate-enc") 0 16

let mac_key = Attest.hmac_sha256 ~key:Attest.platform_key "migrate-mac"

(* --- little-endian u32 fields, carried as unsigned ints --- *)

let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF

(* --- payload serialization --- *)

let serialize im =
  let b = Buffer.create 4096 in
  Buffer.add_string b payload_magic;
  put_u32 b (List.length im.im_vcpus);
  List.iter
    (fun v ->
      (* True internal invariants: the image is built by the SM from
         its own vCPU structures, never from host-supplied data. *)
      assert (Array.length v.vi_regs = 32);
      assert (Array.length v.vi_csrs = 8);
      Array.iter (Buffer.add_int64_le b) v.vi_regs;
      Buffer.add_int64_le b v.vi_pc;
      Array.iter (Buffer.add_int64_le b) v.vi_csrs)
    im.im_vcpus;
  put_u32 b (String.length im.im_measurement);
  Buffer.add_string b im.im_measurement;
  put_u32 b (List.length im.im_pages);
  List.iter
    (fun (gpa, data) ->
      assert (String.length data = 4096);
      Buffer.add_int64_le b gpa;
      Buffer.add_string b data)
    im.im_pages;
  Buffer.contents b

(* [deserialize] parses hostile bytes: the payload only reaches it
   authenticated, but the parser must still be total — a forged or
   future-format payload lands in [Error], never an exception escaping
   through the host ABI. *)
exception Malformed of string

let reject msg = raise (Malformed msg)

let deserialize s =
  let pos = ref 0 in
  let need n =
    if n < 0 || !pos + n > String.length s then reject "truncated payload"
  in
  let u32 () =
    need 4;
    let v = get_u32 s !pos in
    pos := !pos + 4;
    v
  in
  let u64 () =
    need 8;
    let v = String.get_int64_le s !pos in
    pos := !pos + 8;
    v
  in
  let bytes n =
    need n;
    let v = String.sub s !pos n in
    pos := !pos + n;
    v
  in
  if bytes 4 <> payload_magic then reject "bad payload magic";
  let nvcpus = u32 () in
  if nvcpus <= 0 || nvcpus > 64 then reject "implausible vcpu count";
  let vcpus =
    List.init nvcpus (fun _ ->
        let regs = Array.init 32 (fun _ -> u64 ()) in
        let pc = u64 () in
        let csrs = Array.init 8 (fun _ -> u64 ()) in
        { vi_regs = regs; vi_pc = pc; vi_csrs = csrs })
  in
  let mlen = u32 () in
  if mlen > 64 then reject "implausible measurement";
  let measurement = bytes mlen in
  let npages = u32 () in
  if npages < 0 || npages > 1 lsl 20 then reject "implausible page count";
  let pages =
    List.init npages (fun _ ->
        let gpa = u64 () in
        (gpa, bytes 4096))
  in
  { im_vcpus = vcpus; im_measurement = measurement; im_pages = pages }

(* --- sealing --- *)

(* A purely plaintext-derived SIV is deterministic: two exports of an
   unchanged CVM would yield byte-identical blobs, letting the host
   correlate them (and detect that a guest made no progress between
   snapshots). Every seal therefore mixes a 16-byte session nonce into
   both the IV and the tag; the nonce travels in the clear header — it
   carries no secret, it only breaks determinism. *)
let nonce_len = 16

let seal ~nonce im =
  let nonce =
    if String.length nonce = nonce_len then nonce
    else
      String.sub
        (Attest.hmac_sha256 ~key:mac_key ("nonce:" ^ nonce))
        0 nonce_len
  in
  let payload = serialize im in
  (* SIV-style synthetic IV: MAC of nonce + plaintext. *)
  let iv =
    String.sub (Attest.hmac_sha256 ~key:mac_key (nonce ^ payload)) 0 16
  in
  let ct = Crypto.Aes.cbc_encrypt ~key:enc_key ~iv (Attest.pad16 payload) in
  let b = Buffer.create (String.length ct + 80) in
  Buffer.add_string b magic;
  put_u32 b (String.length payload);
  Buffer.add_string b nonce;
  Buffer.add_string b iv;
  Buffer.add_string b ct;
  (* The tag covers the whole header: a payload length outside it would
     let the host append up to 15 padding bytes to the payload. *)
  Buffer.add_string b (Attest.hmac_sha256 ~key:mac_key (Buffer.contents b));
  Buffer.contents b

let unseal blob =
  let hdr = 5 + 4 + nonce_len + 16 in
  if String.length blob < hdr + 32 then Error "migration blob truncated"
  else if String.sub blob 0 5 <> magic then Error "bad migration magic"
  else begin
    let payload_len = get_u32 blob 5 in
    let iv = String.sub blob (9 + nonce_len) 16 in
    let ct_len = String.length blob - hdr - 32 in
    if ct_len <= 0 || ct_len mod 16 <> 0 then Error "bad ciphertext length"
    else begin
      let ct = String.sub blob hdr ct_len in
      let tag = String.sub blob (hdr + ct_len) 32 in
      let body = String.sub blob 0 (hdr + ct_len) in
      if not (Attest.constant_time_eq tag (Attest.hmac_sha256 ~key:mac_key body))
      then
        Error "migration blob failed authentication"
      else begin
        let padded = Crypto.Aes.cbc_decrypt ~key:enc_key ~iv ct in
        if payload_len > String.length padded then
          Error "inconsistent payload length"
        else begin
          match deserialize (String.sub padded 0 payload_len) with
          | im -> Ok im
          | exception Malformed msg -> Error msg
          | exception e ->
              (* belt and braces: no parser bug may cross the ABI *)
              Error ("malformed payload: " ^ Printexc.to_string e)
        end
      end
    end
  end
