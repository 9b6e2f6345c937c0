let page_size = 4096
let page_bits = 12

(* Each backing page carries a write generation so PA-keyed caches
   above (the decoded-instruction cache) can validate with one load.
   Every mutation path funnels through [write_raw] or [zero_range], so
   the counter covers guest stores, DMA, monitor scrubs and migration
   imports alike. *)
type page = { bytes : Bytes.t; mutable gen : int }

type t = { size : int64; pages : (int, page) Hashtbl.t }

let create ~size =
  if size <= 0L then invalid_arg "Physmem.create: non-positive size";
  { size; pages = Hashtbl.create 1024 }

let size t = t.size

let check t off len =
  if off < 0L || Xword.ult t.size (Int64.add off (Int64.of_int len)) then
    invalid_arg
      (Printf.sprintf "Physmem: access %s+%d out of range" (Xword.to_hex off)
         len)

let materialise t idx =
  let p = { bytes = Bytes.make page_size '\x00'; gen = 0 } in
  Hashtbl.add t.pages idx p;
  p

let page_handle t off =
  check t off 1;
  let idx = Int64.to_int (Int64.shift_right_logical off page_bits) in
  match Hashtbl.find_opt t.pages idx with
  | Some p -> p
  | None -> materialise t idx

let page_gen p = p.gen

let is_zero s pos len =
  let stop = pos + len in
  let rec words i =
    if i + 8 <= stop then String.get_int64_ne s i = 0L && words (i + 8)
    else bytes i
  and bytes i =
    i >= stop || (String.unsafe_get s i = '\x00' && bytes (i + 1))
  in
  words pos

let store p in_page s pos len =
  Bytes.blit_string s pos p.bytes in_page len;
  p.gen <- p.gen + 1

(* Split an access at page granularity; most accesses stay in one page.
   Zeros written to an absent page are dropped: it already reads as
   zeros, and since only [page_handle] hands out handles and pages are
   never removed, nothing can observe that the write was skipped. *)
let rec write_raw t off s pos len =
  if len > 0 then begin
    let idx = Int64.to_int (Int64.shift_right_logical off page_bits) in
    let in_page = Int64.to_int (Int64.logand off 0xFFFL) in
    let chunk = min len (page_size - in_page) in
    (match Hashtbl.find_opt t.pages idx with
    | Some p -> store p in_page s pos chunk
    | None ->
        if not (is_zero s pos chunk) then
          store (materialise t idx) in_page s pos chunk);
    write_raw t
      (Int64.add off (Int64.of_int chunk))
      s (pos + chunk) (len - chunk)
  end

let rec read_raw t off buf pos len =
  if len > 0 then begin
    let idx = Int64.to_int (Int64.shift_right_logical off page_bits) in
    let in_page = Int64.to_int (Int64.logand off 0xFFFL) in
    let chunk = min len (page_size - in_page) in
    (match Hashtbl.find_opt t.pages idx with
    | Some p -> Bytes.blit p.bytes in_page buf pos chunk
    | None -> Bytes.fill buf pos chunk '\x00');
    read_raw t (Int64.add off (Int64.of_int chunk)) buf (pos + chunk)
      (len - chunk)
  end

let read_bytes t off len =
  check t off len;
  let buf = Bytes.create len in
  read_raw t off buf 0 len;
  Bytes.unsafe_to_string buf

let write_sub t off s pos len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Physmem.write_sub: slice outside the string";
  check t off len;
  write_raw t off s pos len

let write_bytes t off s = write_sub t off s 0 (String.length s)

let read_u8 t off =
  check t off 1;
  Char.code (read_bytes t off 1).[0]

let write_u8 t off v =
  check t off 1;
  write_bytes t off (String.make 1 (Char.chr (v land 0xff)))

let read_uint t off n =
  let s = read_bytes t off n in
  let v = ref 0L in
  for i = n - 1 downto 0 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code s.[i]))
  done;
  !v

let write_uint t off n v =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.set b i
      (Char.chr
         (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  done;
  write_bytes t off (Bytes.to_string b)

let read_u16 t off = Int64.to_int (read_uint t off 2)
let write_u16 t off v = write_uint t off 2 (Int64.of_int (v land 0xffff))
let read_u32 t off = read_uint t off 4
let write_u32 t off v = write_uint t off 4 (Int64.logand v 0xFFFFFFFFL)
let read_u64 t off = read_uint t off 8
let write_u64 t off v = write_uint t off 8 v

(* Absent pages already read as zeros, so only present ones are
   touched: cleared in place with their generation bumped. *)
let zero_range t off len =
  let len = Int64.to_int len in
  check t off len;
  let rec go off remaining =
    if remaining > 0 then begin
      let idx = Int64.to_int (Int64.shift_right_logical off page_bits) in
      let in_page = Int64.to_int (Int64.logand off 0xFFFL) in
      let chunk = min remaining (page_size - in_page) in
      (match Hashtbl.find_opt t.pages idx with
      | Some p ->
          Bytes.fill p.bytes in_page chunk '\x00';
          p.gen <- p.gen + 1
      | None -> ());
      go (Int64.add off (Int64.of_int chunk)) (remaining - chunk)
    end
  in
  go off len

let allocated_pages t = Hashtbl.length t.pages
