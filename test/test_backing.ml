(* Host backing stores: the sparse DRAM pages of [Physmem] and the
   sparse chunked disk of [Virtio_blk]. Both must behave exactly like a
   dense zero-filled store while materialising only non-zero bytes. *)

open Riscv

(* ---------- Physmem against a dense reference ---------- *)

let mem_size = 4 * Physmem.page_size

type op =
  | Write_bytes of int * string
  | Write_sub of int * string * int * int
  | Write_u64 of int * int64
  | Write_u8 of int * int
  | Zero_range of int * int
  | Read_bytes of int * int
  | Read_u64 of int

let show_op = function
  | Write_bytes (o, s) ->
      Printf.sprintf "write_bytes %#x len=%d zero=%b" o (String.length s)
        (String.for_all (( = ) '\x00') s)
  | Write_sub (o, s, pos, len) ->
      Printf.sprintf "write_sub %#x pos=%d len=%d of %d" o pos len
        (String.length s)
  | Write_u64 (o, v) -> Printf.sprintf "write_u64 %#x %Lx" o v
  | Write_u8 (o, v) -> Printf.sprintf "write_u8 %#x %d" o v
  | Zero_range (o, n) -> Printf.sprintf "zero_range %#x %d" o n
  | Read_bytes (o, n) -> Printf.sprintf "read_bytes %#x %d" o n
  | Read_u64 o -> Printf.sprintf "read_u64 %#x" o

let gen_op =
  let open QCheck.Gen in
  (* offset and length with off + len <= mem_size; lengths reach past
     one page so some accesses straddle a page boundary *)
  let span max_len =
    int_range 0 max_len >>= fun len ->
    int_range 0 (mem_size - len) >|= fun off -> (off, len)
  in
  let word = oneof [ return 0L; ui64 ] in
  frequency
    [
      ( 4,
        span 5000 >>= fun (off, len) ->
        oneof
          [
            return (String.make len '\x00');
            string_size ~gen:char (return len);
          ]
        >|= fun s -> Write_bytes (off, s) );
      ( 2,
        (* a slice of a larger string whose bytes outside the slice are
           non-zero, so a write past either end would show *)
        span 5000 >>= fun (off, len) ->
        triple
          (oneof
             [
               return (String.make len '\x00');
               string_size ~gen:char (return len);
             ])
          (int_range 0 64) (int_range 0 64)
        >|= fun (s, pos, tail) ->
        let host = String.make pos 'J' ^ s ^ String.make tail 'J' in
        Write_sub (off, host, pos, len) );
      ( 3,
        pair (int_range 0 (mem_size - 8)) word >|= fun (o, v) ->
        Write_u64 (o, v) );
      ( 2,
        pair (int_range 0 (mem_size - 1)) (oneof [ return 0; int_range 1 255 ])
        >|= fun (o, v) -> Write_u8 (o, v) );
      (2, span 9000 >|= fun (o, n) -> Zero_range (o, n));
      (2, span 5000 >|= fun (o, n) -> Read_bytes (o, n));
      (2, int_range 0 (mem_size - 8) >|= fun o -> Read_u64 o);
    ]

let u64_of_bytes b off =
  let v = ref 0L in
  for i = 7 downto 0 do
    v :=
      Int64.logor (Int64.shift_left !v 8)
        (Int64.of_int (Char.code (Bytes.get b (off + i))))
  done;
  !v

(* Run [ops] on a fresh [Physmem] and a dense [Bytes] side by side.
   Besides the contents, check the materialisation rule exactly: the
   pages present are those that ever took a non-zero byte. *)
let differential ops =
  let m = Physmem.create ~size:(Int64.of_int mem_size) in
  let model = Bytes.make mem_size '\x00' in
  let touched = Array.make (mem_size / Physmem.page_size) false in
  let note_write off s =
    String.iteri
      (fun i c ->
        if c <> '\x00' then touched.((off + i) / Physmem.page_size) <- true)
      s
  in
  let le8 v =
    String.init 8 (fun i ->
        Char.chr
          (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
  in
  let step = function
    | Write_bytes (off, s) ->
        Physmem.write_bytes m (Int64.of_int off) s;
        Bytes.blit_string s 0 model off (String.length s);
        note_write off s;
        true
    | Write_sub (off, s, pos, len) ->
        Physmem.write_sub m (Int64.of_int off) s pos len;
        Bytes.blit_string s pos model off len;
        note_write off (String.sub s pos len);
        true
    | Write_u64 (off, v) ->
        Physmem.write_u64 m (Int64.of_int off) v;
        Bytes.blit_string (le8 v) 0 model off 8;
        note_write off (le8 v);
        true
    | Write_u8 (off, v) ->
        Physmem.write_u8 m (Int64.of_int off) v;
        Bytes.set model off (Char.chr v);
        note_write off (String.make 1 (Char.chr v));
        true
    | Zero_range (off, n) ->
        Physmem.zero_range m (Int64.of_int off) (Int64.of_int n);
        Bytes.fill model off n '\x00';
        true
    | Read_bytes (off, n) ->
        Physmem.read_bytes m (Int64.of_int off) n = Bytes.sub_string model off n
    | Read_u64 off ->
        Physmem.read_u64 m (Int64.of_int off) = u64_of_bytes model off
  in
  List.for_all
    (fun op ->
      step op
      && Physmem.allocated_pages m
         = Array.fold_left (fun n b -> if b then n + 1 else n) 0 touched)
    ops
  && Physmem.read_bytes m 0L mem_size = Bytes.to_string model

let physmem_props =
  [
    QCheck.Test.make ~name:"sparse physmem matches a dense reference"
      ~count:300
      (QCheck.make
         ~print:(fun ops -> String.concat "; " (List.map show_op ops))
         QCheck.Gen.(list_size (int_range 1 40) gen_op))
      differential;
  ]

let raises_invalid f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let physmem_tests =
  [
    Alcotest.test_case "zero writes and scrubs materialise nothing" `Quick
      (fun () ->
        let m = Physmem.create ~size:0x100000L in
        Physmem.write_bytes m 0x1000L (String.make 8192 '\x00');
        Physmem.write_u64 m 0x5008L 0L;
        Physmem.write_u8 m 0x7000L 0;
        Physmem.zero_range m 0L 0x100000L;
        Alcotest.(check int) "still empty" 0 (Physmem.allocated_pages m);
        Alcotest.(check string)
          "reads zero" (String.make 16 '\x00')
          (Physmem.read_bytes m 0x1FF8L 16);
        Physmem.write_bytes m 0x3000L "\x00\x00\x01";
        Alcotest.(check int) "first non-zero byte" 1
          (Physmem.allocated_pages m);
        Physmem.write_bytes m 0x3FFFL "\x02\x00";
        Alcotest.(check int) "only the page with the non-zero byte" 1
          (Physmem.allocated_pages m));
    Alcotest.test_case "a handed-out page still sees zero scrubs" `Quick
      (fun () ->
        let m = Physmem.create ~size:0x10000L in
        let p = Physmem.page_handle m 0x2000L in
        Alcotest.(check int) "page_handle materialises" 1
          (Physmem.allocated_pages m);
        let g0 = Physmem.page_gen p in
        Physmem.zero_range m 0x2000L 4096L;
        let g1 = Physmem.page_gen p in
        Alcotest.(check bool) "scrub bumps gen" true (g1 <> g0);
        Physmem.write_u64 m 0x2010L 0L;
        Alcotest.(check bool) "zero store bumps gen" true
          (Physmem.page_gen p <> g1);
        Physmem.write_bytes m 0x2000L (String.make 4096 'X');
        Physmem.zero_range m 0x2000L 4096L;
        Alcotest.(check string)
          "cleared in place" (String.make 4096 '\x00')
          (Physmem.read_bytes m 0x2000L 4096));
    Alcotest.test_case "Bus.zero_range stays inside DRAM" `Quick (fun () ->
        let bus = Bus.create ~dram_size:0x10000L ~nharts:1 in
        Bus.write bus 0x8000_1008L 8 0x55L;
        Bus.zero_range bus 0x8000_1000L 4096;
        Alcotest.(check int64) "cleared" 0L (Bus.read bus 0x8000_1008L 8);
        Alcotest.(check bool)
          "past DRAM faults" true
          (match Bus.zero_range bus 0x8000_F000L 8192 with
          | () -> false
          | exception Bus.Fault _ -> true));
    Alcotest.test_case "write_sub rejects bad slices and writes nothing"
      `Quick (fun () ->
        let bus = Bus.create ~dram_size:0x10000L ~nharts:1 in
        let m = Bus.dram bus in
        List.iter
          (fun (pos, len) ->
            Alcotest.(check bool)
              (Printf.sprintf "Physmem slice %d+%d" pos len)
              true
              (raises_invalid (fun () ->
                   Physmem.write_sub m 0x1000L "abcdefgh" pos len));
            Alcotest.(check bool)
              (Printf.sprintf "Bus slice %d+%d" pos len)
              true
              (raises_invalid (fun () ->
                   Bus.write_sub bus 0x8000_1000L "abcdefgh" pos len)))
          [ (-1, 2); (0, -1); (7, 2); (9, 0) ];
        Alcotest.(check bool)
          "past the end of memory" true
          (raises_invalid (fun () ->
               Physmem.write_sub m 0xFFFCL "abcdefgh" 0 8));
        Alcotest.(check bool)
          "past DRAM faults" true
          (match Bus.write_sub bus 0x8000_FFFCL "abcdefgh" 0 8 with
          | () -> false
          | exception Bus.Fault _ -> true);
        Alcotest.(check int) "nothing written" 0 (Physmem.allocated_pages m);
        Bus.write_sub bus 0x8000_1FFEL "abcdefgh" 2 4;
        Alcotest.(check string)
          "slice lands across the page boundary" "cdef"
          (Bus.read_bytes bus 0x8000_1FFEL 4));
  ]

(* ---------- Virtio_blk sparse disk ---------- *)

let capacity = 262144
let sector_size = 512

(* A block device over a small DRAM with GPA = DRAM offset and an open
   IOPMP, so requests can be driven without a VM. *)
let make_blk () =
  let bus = Bus.create ~dram_size:0x100000L ~nharts:1 in
  Iopmp.allow_all_default (Bus.iopmp bus) true;
  let blk = Hypervisor.Virtio_blk.create ~bus ~capacity_sectors:capacity in
  Hypervisor.Virtio_blk.set_translate blk (fun gpa ->
      if gpa >= 0L && gpa < 0x100000L then Some (Int64.add Bus.dram_base gpa)
      else None);
  (bus, blk)

let pattern n = String.init n (fun i -> Char.chr (1 + (i * 7 mod 251)))

let blk_tests =
  let open Hypervisor in
  [
    Alcotest.test_case "never-written sectors read as zeros" `Quick
      (fun () ->
        let bus, blk = make_blk () in
        Alcotest.(check string)
          "backing" (String.make 1024 '\x00')
          (Virtio_blk.read_backing blk ~sector:1000 ~len:1024);
        Bus.write_bytes bus (Int64.add Bus.dram_base 0x4000L) (pattern 512);
        (match
           Virtio_blk.request blk ~write:false ~sector:(capacity / 2)
             ~len:512 ~data_gpa:0x4000L
         with
        | Ok n -> Alcotest.(check int) "read len" 512 n
        | Error e -> Alcotest.fail e);
        Alcotest.(check string)
          "DMA'd zeros" (String.make 512 '\x00')
          (Bus.read_bytes bus (Int64.add Bus.dram_base 0x4000L) 512));
    Alcotest.test_case "a write straddling a 4 KiB chunk reads back" `Quick
      (fun () ->
        let bus, blk = make_blk () in
        let data = pattern 2048 in
        Bus.write_bytes bus (Int64.add Bus.dram_base 0x2000L) data;
        (* sectors 7..10 cover bytes 3584..5631: chunks 0 and 1 *)
        (match
           Virtio_blk.request blk ~write:true ~sector:7 ~len:2048
             ~data_gpa:0x2000L
         with
        | Ok n -> Alcotest.(check int) "write len" 2048 n
        | Error e -> Alcotest.fail e);
        Alcotest.(check string)
          "backing" data
          (Virtio_blk.read_backing blk ~sector:7 ~len:2048);
        (match
           Virtio_blk.request blk ~write:false ~sector:7 ~len:2048
             ~data_gpa:0x8000L
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail e);
        Alcotest.(check string)
          "read back by DMA" data
          (Bus.read_bytes bus (Int64.add Bus.dram_base 0x8000L) 2048);
        Alcotest.(check string)
          "neighbours untouched" (String.make 512 '\x00')
          (Virtio_blk.read_backing blk ~sector:6 ~len:512);
        Alcotest.(check int) "requests" 2 (Virtio_blk.requests_served blk);
        Alcotest.(check int) "bytes written" 2048
          (Virtio_blk.bytes_written blk);
        Alcotest.(check int) "bytes read" 2048 (Virtio_blk.bytes_read blk));
    Alcotest.test_case "the last sector is writable, one past is not" `Quick
      (fun () ->
        let bus, blk = make_blk () in
        let last = capacity - 1 in
        Bus.write_bytes bus (Int64.add Bus.dram_base 0x1000L) (pattern 512);
        (match
           Virtio_blk.request blk ~write:true ~sector:last ~len:512
             ~data_gpa:0x1000L
         with
        | Ok n -> Alcotest.(check int) "last sector" 512 n
        | Error e -> Alcotest.fail e);
        Alcotest.(check string)
          "last sector reads back" (pattern 512)
          (Virtio_blk.read_backing blk ~sector:last ~len:512);
        let rejected ~sector ~len =
          Virtio_blk.request blk ~write:true ~sector ~len ~data_gpa:0x1000L
        in
        Alcotest.(check (result int string))
          "one past the end" (Error "blk.bounds")
          (rejected ~sector:capacity ~len:512);
        Alcotest.(check (result int string))
          "straddles the end" (Error "blk.bounds")
          (rejected ~sector:last ~len:1024);
        Alcotest.(check (result int string))
          "near max_int" (Error "blk.bounds")
          (rejected ~sector:(max_int / 2) ~len:512);
        (* the same request through the MMIO register file *)
        let desc = 0x3000L in
        let le n v =
          String.init n (fun i ->
              Char.chr
                (Int64.to_int (Int64.shift_right_logical v (8 * i)) land 0xff))
        in
        Bus.write_bytes bus (Int64.add Bus.dram_base desc)
          (le 8 (Int64.of_int capacity) ^ le 4 512L ^ le 4 1L ^ le 8 0x1000L);
        Virtio_blk.mmio_write blk 0x00L 8 desc;
        Virtio_blk.mmio_write blk 0x08L 4 1L;
        Alcotest.(check int64) "kick status" 1L
          (Virtio_blk.mmio_read blk 0x10L 4);
        Alcotest.(check int) "only the in-range request counted" 1
          (Virtio_blk.requests_served blk));
    Alcotest.test_case "read_backing and write_backing are bounds-checked"
      `Quick (fun () ->
        let _, blk = make_blk () in
        Alcotest.(check bool)
          "read past end" true
          (raises_invalid (fun () ->
               Virtio_blk.read_backing blk ~sector:capacity ~len:1));
        Alcotest.(check bool)
          "read negative" true
          (raises_invalid (fun () ->
               Virtio_blk.read_backing blk ~sector:(-1) ~len:512));
        Alcotest.(check bool)
          "write past end" true
          (raises_invalid (fun () ->
               Virtio_blk.write_backing blk ~sector:capacity "x"));
        Alcotest.(check bool)
          "write straddling end" true
          (raises_invalid (fun () ->
               Virtio_blk.write_backing blk ~sector:(capacity - 1)
                 (String.make (sector_size + 1) 'y')));
        Virtio_blk.write_backing blk ~sector:(capacity - 1)
          (String.make sector_size 'z');
        Alcotest.(check string)
          "in range still works" (String.make sector_size 'z')
          (Virtio_blk.read_backing blk ~sector:(capacity - 1)
             ~len:sector_size));
    Alcotest.test_case "a testbed allocates under 1 MiB of host heap" `Quick
      (fun () ->
        let before = Gc.allocated_bytes () in
        let tb = Platform.Testbed.create () in
        let bytes = Gc.allocated_bytes () -. before in
        ignore (Sys.opaque_identity tb);
        if bytes >= 1048576. then
          Alcotest.failf "Testbed.create allocated %.0f bytes" bytes);
  ]

let suite =
  [
    ("backing.physmem", physmem_tests);
    ("backing.physmem.properties",
     List.map QCheck_alcotest.to_alcotest physmem_props);
    ("backing.virtio_blk", blk_tests);
  ]
