open Riscv

let sid = 3
let sector_size = 512

(* The disk is a sparse store of 4 KiB chunks: a chunk never written
   with a non-zero byte is absent and reads as zeros, so the 128 MiB
   default disk costs only what the guests wrote to it. *)
type t = {
  bus : Bus.t;
  disk : Physmem.t;
  mutable translate : int64 -> int64 option;
  mutable desc_gpa : int64;
  mutable status : int64;
  mutable requests : int;
  mutable bytes_r : int;
  mutable bytes_w : int;
  mutable trace : Metrics.Trace.t option;
}

let create ~bus ~capacity_sectors =
  if capacity_sectors <= 0 then
    invalid_arg "Virtio_blk.create: non-positive capacity";
  {
    bus;
    disk =
      Physmem.create ~size:(Int64.of_int (capacity_sectors * sector_size));
    translate = (fun _ -> None);
    desc_gpa = 0L;
    status = 0L;
    requests = 0;
    bytes_r = 0;
    bytes_w = 0;
    trace = None;
  }

let set_translate t f = t.translate <- f
let set_trace t tr = t.trace <- Some tr

let obs t =
  match t.trace with
  | Some tr when Metrics.Trace.is_enabled tr -> Some tr
  | _ -> None

(* Overflow-safe bounds check for a guest-controlled sector/len pair:
   [sector * sector_size + len] is never formed until the quotient test
   proves the product fits inside the disk, so a sector near max_int
   cannot wrap negative and slip past the comparison. *)
let bounds_ok t ~sector ~len =
  let disk_len = Int64.to_int (Physmem.size t.disk) in
  sector >= 0 && len >= 0 && len <= disk_len
  && sector <= (disk_len - len) / sector_size

let disk_read t ~sector ~len =
  Physmem.read_bytes t.disk (Int64.of_int (sector * sector_size)) len

let disk_write t ~sector data =
  Physmem.write_bytes t.disk (Int64.of_int (sector * sector_size)) data

(* One block request, for an MMIO kick or a ring descriptor alike. A
   DMA the IOPMP denies, or device arithmetic a hostile descriptor
   pushed out of range, refuses the request instead of raising out of
   the hypervisor's run loop. *)
let request t ~write ~sector ~len ~data_gpa =
  if not (bounds_ok t ~sector ~len) then Error "blk.bounds"
  else
    match
      if write then
        match Bus.read_gpa t.bus ~sid ~translate:t.translate data_gpa len with
        | None -> false
        | Some data ->
            disk_write t ~sector data;
            true
      else
        Bus.write_gpa t.bus ~sid ~translate:t.translate data_gpa
          (disk_read t ~sector ~len)
    with
    | false -> Error "blk.dma"
    | true ->
        t.requests <- t.requests + 1;
        if write then t.bytes_w <- t.bytes_w + len
        else t.bytes_r <- t.bytes_r + len;
        Ok len
    | exception (Bus.Fault _ | Invalid_argument _) -> Error "blk.refused"

let u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF

(* The kick: decode the descriptor, run the request, latch its status.
   A descriptor page that does not translate, or that the IOPMP
   denies, fails the kick like a refused request. *)
let process t =
  let tr = obs t in
  Option.iter (fun tr -> Metrics.Trace.span_begin tr "blk.request") tr;
  let detail =
    match Bus.read_gpa t.bus ~sid ~translate:t.translate t.desc_gpa 24 with
    | None | (exception Bus.Fault _) ->
        t.status <- 1L;
        []
    | Some desc ->
        let sector = Int64.to_int (String.get_int64_le desc 0) in
        let len = u32 desc 8 and op = u32 desc 12 in
        let served =
          (op = 0 || op = 1)
          && Result.is_ok
               (request t ~write:(op = 1) ~sector ~len
                  ~data_gpa:(String.get_int64_le desc 16))
        in
        t.status <- (if served then 0L else 1L);
        if Option.is_none tr then []
        else
          [
            ("sector", string_of_int sector);
            ("len", string_of_int len);
            ("op", if op = 0 then "read" else if op = 1 then "write"
                   else string_of_int op);
          ]
  in
  match tr with
  | Some tr ->
      Metrics.Trace.span_end tr
        ~args:(detail @ [ ("status", Int64.to_string t.status) ])
        "blk.request"
  | None -> ()

let mmio_read t off _len =
  match Int64.to_int off with 0x10 -> t.status | _ -> 0L

let mmio_write t off _len v =
  match Int64.to_int off with
  | 0x00 -> t.desc_gpa <- v
  | 0x08 -> process t
  | _ -> ()

let requests_served t = t.requests
let bytes_read t = t.bytes_r
let bytes_written t = t.bytes_w

let read_backing t ~sector ~len =
  if not (bounds_ok t ~sector ~len) then
    invalid_arg "Virtio_blk.read_backing: out of range";
  disk_read t ~sector ~len

let write_backing t ~sector data =
  if not (bounds_ok t ~sector ~len:(String.length data)) then
    invalid_arg "Virtio_blk.write_backing: out of range";
  disk_write t ~sector data
