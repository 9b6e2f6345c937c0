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

(* Read [len] bytes of guest memory at a shared GPA, page by page,
   through DMA (IOPMP-checked). *)
let dma_read_gpa t gpa len =
  let buf = Buffer.create len in
  let rec go off =
    if off >= len then Some (Buffer.contents buf)
    else begin
      let g = Int64.add gpa (Int64.of_int off) in
      match t.translate g with
      | None -> None
      | Some pa ->
          let in_page = 4096 - Int64.to_int (Int64.logand g 0xFFFL) in
          let chunk = min in_page (len - off) in
          Buffer.add_string buf (Bus.dma_read t.bus ~sid pa chunk);
          go (off + chunk)
    end
  in
  go 0

let dma_write_gpa t gpa data =
  let len = String.length data in
  let rec go off =
    if off >= len then true
    else begin
      let g = Int64.add gpa (Int64.of_int off) in
      match t.translate g with
      | None -> false
      | Some pa ->
          let in_page = 4096 - Int64.to_int (Int64.logand g 0xFFFL) in
          let chunk = min in_page (len - off) in
          Bus.dma_write t.bus ~sid pa (String.sub data off chunk);
          go (off + chunk)
    end
  in
  go 0

let le_u64 s off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8)
           (Int64.of_int (Char.code s.[off + i]))
  done;
  !v

let le_u32 s off = Int64.to_int (Int64.logand (le_u64 s off) 0xFFFFFFFFL)

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

let process t =
  let tr = obs t in
  (match tr with
  | Some tr -> Metrics.Trace.span_begin tr "blk.request"
  | None -> ());
  t.status <- 1L (* error until proven otherwise *);
  let detail =
    match dma_read_gpa t t.desc_gpa 24 with
    | None -> []
    | Some desc ->
        let sector = Int64.to_int (le_u64 desc 0) in
        let len = le_u32 desc 8 in
        let op = le_u32 desc 12 in
        let data_gpa = le_u64 desc 16 in
        (if not (bounds_ok t ~sector ~len) then ()
         else
           if op = 0 then begin
             (* device -> guest *)
             let data = disk_read t ~sector ~len in
             if dma_write_gpa t data_gpa data then begin
               t.requests <- t.requests + 1;
               t.bytes_r <- t.bytes_r + len;
               t.status <- 0L
             end
           end
           else if op = 1 then begin
             match dma_read_gpa t data_gpa len with
             | None -> ()
             | Some data ->
                 disk_write t ~sector data;
                 t.requests <- t.requests + 1;
                 t.bytes_w <- t.bytes_w + len;
                 t.status <- 0L
           end);
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

(* Non-MMIO service entry for the exitless ring: same DMA path, bounds
   checks and counters as [process], but descriptor fields come from a
   ring descriptor instead of the register file. May raise [Bus.Fault]
   from the IOPMP-checked DMA (the caller treats that as a reject). *)
let serve_ring t ~write ~sector ~len ~data_gpa =
  if not (bounds_ok t ~sector ~len) then Error "blk.bounds"
  else begin
    if not write then begin
      let data = disk_read t ~sector ~len in
      if dma_write_gpa t data_gpa data then begin
        t.requests <- t.requests + 1;
        t.bytes_r <- t.bytes_r + len;
        Ok len
      end
      else Error "blk.dma"
    end
    else
      match dma_read_gpa t data_gpa len with
      | None -> Error "blk.dma"
      | Some data ->
          disk_write t ~sector data;
          t.requests <- t.requests + 1;
          t.bytes_w <- t.bytes_w + len;
          Ok len
  end

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
