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

let payload_magic = "ZCVM"

(* --- payload serialization --- *)

let serialize im =
  let b = Buffer.create 4096 in
  Buffer.add_string b payload_magic;
  Wire.put_u32 b (List.length im.im_vcpus);
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
  Wire.put_u32 b (String.length im.im_measurement);
  Buffer.add_string b im.im_measurement;
  Wire.put_u32 b (List.length im.im_pages);
  List.iter
    (fun (gpa, data) ->
      assert (String.length data = 4096);
      Buffer.add_int64_le b gpa;
      Buffer.add_string b data)
    im.im_pages;
  Buffer.contents b

(* The payload only reaches [deserialize] authenticated, but the parser
   must still be total: a forged or future-format payload lands in
   [Error] through [Wire.parse]. *)
let deserialize r =
  if Wire.bytes r 4 <> payload_magic then Wire.reject "bad payload magic";
  let nvcpus = Wire.u32 r in
  if nvcpus <= 0 || nvcpus > 64 then Wire.reject "implausible vcpu count";
  let vcpus =
    List.init nvcpus (fun _ ->
        let regs = Array.init 32 (fun _ -> Wire.u64 r) in
        let pc = Wire.u64 r in
        let csrs = Array.init 8 (fun _ -> Wire.u64 r) in
        { vi_regs = regs; vi_pc = pc; vi_csrs = csrs })
  in
  let mlen = Wire.u32 r in
  if mlen > 64 then Wire.reject "implausible measurement";
  let measurement = Wire.bytes r mlen in
  let npages = Wire.u32 r in
  if npages > 1 lsl 20 then Wire.reject "implausible page count";
  let pages =
    List.init npages (fun _ ->
        let gpa = Wire.u64 r in
        (gpa, Wire.bytes r 4096))
  in
  { im_vcpus = vcpus; im_measurement = measurement; im_pages = pages }

(* --- sealing --- *)

let seal ~nonce im = Attest.seal_migration ~nonce (serialize im)

let unseal blob =
  Result.bind (Attest.unseal_migration blob) (fun payload ->
      Wire.parse payload deserialize)
