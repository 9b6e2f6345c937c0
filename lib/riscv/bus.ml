exception Fault of int64

type device = {
  name : string;
  base : int64;
  size : int64;
  dev_read : int64 -> int -> int64;
  dev_write : int64 -> int -> int64 -> unit;
}

type t = {
  dram : Physmem.t;
  clint : Clint.t;
  uart : Uart.t;
  iopmp : Iopmp.t;
  mutable devices : device list;
}

let dram_base = 0x8000_0000L
let clint_base = 0x0200_0000L
let uart_base = 0x1000_0000L

let create ~dram_size ~nharts =
  {
    dram = Physmem.create ~size:dram_size;
    clint = Clint.create ~nharts;
    uart = Uart.create ();
    iopmp = Iopmp.create ();
    devices = [];
  }

let dram t = t.dram
let clint t = t.clint
let uart t = t.uart
let iopmp t = t.iopmp
let dram_size t = Physmem.size t.dram
let dram_end t = Int64.add dram_base (Physmem.size t.dram)

let in_dram t addr =
  (not (Xword.ult addr dram_base)) && Xword.ult addr (dram_end t)

let in_window ~base ~size addr =
  (not (Xword.ult addr base)) && Xword.ult addr (Int64.add base size)

let overlaps b1 s1 b2 s2 =
  Xword.ult b1 (Int64.add b2 s2) && Xword.ult b2 (Int64.add b1 s1)

let register_device t ~name ~base ~size ~read ~write =
  if size <= 0L then invalid_arg "Bus.register_device: non-positive size";
  let clash =
    overlaps base size dram_base (dram_size t)
    || overlaps base size clint_base Clint.size
    || overlaps base size uart_base Uart.size
    || List.exists (fun d -> overlaps base size d.base d.size) t.devices
  in
  if clash then
    invalid_arg
      (Printf.sprintf "Bus.register_device: %s window overlaps" name);
  t.devices <-
    { name; base; size; dev_read = read; dev_write = write } :: t.devices

let find_device t addr =
  List.find_opt (fun d -> in_window ~base:d.base ~size:d.size addr) t.devices

let is_mmio t addr =
  in_window ~base:clint_base ~size:Clint.size addr
  || in_window ~base:uart_base ~size:Uart.size addr
  || find_device t addr <> None

let check_width len =
  match len with
  | 1 | 2 | 4 | 8 -> ()
  | _ -> invalid_arg "Bus: access width must be 1, 2, 4 or 8"

let read t addr len =
  check_width len;
  if in_dram t addr then begin
    let off = Int64.sub addr dram_base in
    match len with
    | 1 -> Int64.of_int (Physmem.read_u8 t.dram off)
    | 2 -> Int64.of_int (Physmem.read_u16 t.dram off)
    | 4 -> Physmem.read_u32 t.dram off
    | _ -> Physmem.read_u64 t.dram off
  end
  else if in_window ~base:clint_base ~size:Clint.size addr then
    Clint.read t.clint (Int64.sub addr clint_base) len
  else if in_window ~base:uart_base ~size:Uart.size addr then
    Uart.read t.uart (Int64.sub addr uart_base) len
  else begin
    match find_device t addr with
    | Some d -> d.dev_read (Int64.sub addr d.base) len
    | None -> raise (Fault addr)
  end

let write t addr len v =
  check_width len;
  if in_dram t addr then begin
    let off = Int64.sub addr dram_base in
    match len with
    | 1 -> Physmem.write_u8 t.dram off (Int64.to_int v land 0xff)
    | 2 -> Physmem.write_u16 t.dram off (Int64.to_int v land 0xffff)
    | 4 -> Physmem.write_u32 t.dram off v
    | _ -> Physmem.write_u64 t.dram off v
  end
  else if in_window ~base:clint_base ~size:Clint.size addr then
    Clint.write t.clint (Int64.sub addr clint_base) len v
  else if in_window ~base:uart_base ~size:Uart.size addr then
    Uart.write t.uart (Int64.sub addr uart_base) len v
  else begin
    match find_device t addr with
    | Some d -> d.dev_write (Int64.sub addr d.base) len v
    | None -> raise (Fault addr)
  end

let require_dram t addr len =
  let last = Int64.add addr (Int64.of_int (max (len - 1) 0)) in
  if not (in_dram t addr && in_dram t last) then raise (Fault addr)

let read_bytes t addr len =
  require_dram t addr len;
  Physmem.read_bytes t.dram (Int64.sub addr dram_base) len

let write_sub t addr s pos len =
  require_dram t addr len;
  Physmem.write_sub t.dram (Int64.sub addr dram_base) s pos len

let write_bytes t addr s = write_sub t addr s 0 (String.length s)

let zero_range t addr len =
  require_dram t addr len;
  Physmem.zero_range t.dram (Int64.sub addr dram_base) (Int64.of_int len)

let dma_check t ~sid access addr len =
  if not (Iopmp.check t.iopmp ~sid access addr len) then raise (Fault addr)

let dma_read t ~sid addr len =
  dma_check t ~sid Iopmp.Read addr len;
  read_bytes t addr len

let dma_write t ~sid addr s =
  dma_check t ~sid Iopmp.Write addr (String.length s);
  write_bytes t addr s

(* Guest-physical ranges: [f pa off n] on each page-sized piece
   [off, off + n) of the range, in order; false as soon as a page does
   not translate. *)
let iter_pages ~translate gpa len f =
  let rec go off =
    off >= len
    ||
    let g = Int64.add gpa (Int64.of_int off) in
    match translate g with
    | None -> false
    | Some pa ->
        let n = min (len - off) (4096 - Int64.to_int (Int64.logand g 0xFFFL)) in
        f pa off n;
        go (off + n)
  in
  go 0

let read_page t sid pa n =
  match sid with
  | Some sid -> dma_read t ~sid pa n
  | None -> read_bytes t pa n

let read_gpa t ?sid ~translate gpa len =
  if len <= 0 then Some ""
  else if Int64.to_int (Int64.logand gpa 0xFFFL) + len <= 4096 then
    match translate gpa with
    | None -> None
    | Some pa -> Some (read_page t sid pa len)
  else begin
    let buf = Bytes.create len in
    if
      iter_pages ~translate gpa len (fun pa off n ->
          Bytes.blit_string (read_page t sid pa n) 0 buf off n)
    then Some (Bytes.unsafe_to_string buf)
    else None
  end

let write_gpa t ?sid ~translate gpa data =
  iter_pages ~translate gpa (String.length data) (fun pa off n ->
      (match sid with
      | Some sid -> dma_check t ~sid Iopmp.Write pa n
      | None -> ());
      write_sub t pa data off n)
