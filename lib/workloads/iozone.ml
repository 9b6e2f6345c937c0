type op = Write | Read
type event = Io_request of { bytes : int }

type run = {
  file_kb : int;
  record_kb : int;
  op : op;
  events : event list;
  ops : Opcount.t;
}

let flush_threshold = 128 * 1024
let locality = { Opcount.hot_pages = 16; hot_dlines = 96; hot_ilines = 24 }

(* Guest page-cache model (256 MiB VM as in §V.D): roughly half of RAM
   caches file data; the dirty-page limit throttles writers once their
   overhang exceeds it, after which every further record synchronously
   pushes device I/O. *)
let page_cache_bytes = 128 * 1024 * 1024
let dirty_limit_bytes = 32 * 1024 * 1024

(* Per-byte cost of moving a record through the page cache (memcpy in
   doublewords plus loop overhead), and fixed per-record syscall-ish
   bookkeeping. *)
let per_record_word = Rv8_kernels.mix ~alu:1 ~load:1 ~store:1 ()
let per_record_fixed =
  (* one write()/read() syscall: user/kernel crossing, fd lookup, page
     cache bookkeeping — a few thousand cycles on a 100 MHz in-order
     core *)
  Rv8_kernels.mix ~alu:1300 ~load:500 ~store:250 ~branch:270 ~jump:110 ()

let run ~op ~file_kb ~record_kb =
  if file_kb <= 0 || record_kb <= 0 then
    invalid_arg "Iozone.run: non-positive sizes";
  let file_bytes = file_kb * 1024 in
  (* IOZone never uses a record larger than the file. *)
  let record_bytes = min (record_kb * 1024) file_bytes in
  let nrecords = (file_bytes + record_bytes - 1) / record_bytes in
  (* Every record, the last one included, is a full record's syscall
     and memcpy. *)
  let ops = Opcount.zero () in
  Opcount.add_scaled ops per_record_fixed nrecords;
  Opcount.add_scaled ops per_record_word (nrecords * ((record_bytes + 7) / 8));
  (* Bytes that must move through the device during the measured run:
     writes beyond the dirty limit; reads beyond what fits in cache
     (sequential IOZone re-reads the file it just wrote). The kernel
     coalesces them into threshold-sized requests and issues the
     remainder last. *)
  let sync_bytes =
    match op with
    | Write -> max 0 (file_bytes - dirty_limit_bytes)
    | Read -> max 0 (file_bytes - page_cache_bytes)
  in
  let full =
    List.init (sync_bytes / flush_threshold) (fun _ ->
        Io_request { bytes = flush_threshold })
  in
  let rest = sync_bytes mod flush_threshold in
  let events =
    if rest > 0 then full @ [ Io_request { bytes = rest } ] else full
  in
  { file_kb; record_kb; op; events; ops }

let file_sizes_kb = [ 64; 256; 1024; 4096; 16384; 65536; 262144; 524288 ]
let record_sizes_kb = [ 8; 128; 512 ]
