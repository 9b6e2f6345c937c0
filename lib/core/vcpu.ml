open Riscv

type secure = {
  regs : int64 array;
  mutable pc : int64;
  mutable vsstatus : int64;
  mutable vstvec : int64;
  mutable vsscratch : int64;
  mutable vsepc : int64;
  mutable vscause : int64;
  mutable vstval : int64;
  mutable vsatp : int64;
  mutable hvip : int64;
  mutable generation : int;
}

type shared = {
  mutable s_htinst : int64;
  mutable s_htval : int64;
  mutable s_gpa : int64;
  mutable s_data : int64;
  mutable s_reg_index : int;
  mutable s_pc_advance : int64;
}

let fresh_secure ~entry_pc =
  {
    regs = Array.make 32 0L;
    pc = entry_pc;
    vsstatus = 0L;
    vstvec = 0L;
    vsscratch = 0L;
    vsepc = 0L;
    vscause = 0L;
    vstval = 0L;
    vsatp = 0L;
    hvip = 0L;
    generation = 0;
  }

let fresh_shared () =
  {
    s_htinst = 0L;
    s_htval = 0L;
    s_gpa = 0L;
    s_data = 0L;
    s_reg_index = 0;
    s_pc_advance = 0L;
  }

let save_from_hart (hart : Hart.t) sv =
  Array.blit hart.Hart.regs 0 sv.regs 0 32;
  sv.pc <- hart.Hart.pc;
  let csr = hart.Hart.csr in
  sv.vsstatus <- csr.Csr.vsstatus;
  sv.vstvec <- csr.Csr.vstvec;
  sv.vsscratch <- csr.Csr.vsscratch;
  sv.vsepc <- csr.Csr.vsepc;
  sv.vscause <- csr.Csr.vscause;
  sv.vstval <- csr.Csr.vstval;
  sv.vsatp <- csr.Csr.vsatp;
  sv.hvip <- csr.Csr.hvip;
  sv.generation <- sv.generation + 1

let restore_to_hart sv (hart : Hart.t) =
  Array.blit sv.regs 0 hart.Hart.regs 0 32;
  hart.Hart.regs.(0) <- 0L;
  hart.Hart.pc <- sv.pc;
  let csr = hart.Hart.csr in
  csr.Csr.vsstatus <- sv.vsstatus;
  csr.Csr.vstvec <- sv.vstvec;
  csr.Csr.vsscratch <- sv.vsscratch;
  csr.Csr.vsepc <- sv.vsepc;
  csr.Csr.vscause <- sv.vscause;
  csr.Csr.vstval <- sv.vstval;
  csr.Csr.vsatp <- sv.vsatp;
  csr.Csr.hvip <- sv.hvip

type mmio = {
  mmio_write : bool;
  mmio_gpa : int64;
  mmio_size : int;
  mmio_unsigned : bool;
  mmio_data : int64;
  mmio_reg : int;
}

let decode_mmio regs ~htinst ~gpa =
  let size = function Decode.B -> 1 | H -> 2 | W -> 4 | D -> 8 in
  match Decode.decode htinst with
  | Decode.Load { rd; width; unsigned; _ } ->
      Ok { mmio_write = false; mmio_gpa = gpa; mmio_size = size width;
           mmio_unsigned = unsigned; mmio_data = 0L; mmio_reg = rd }
  | Decode.Store { rs2; width; _ } ->
      Ok { mmio_write = true; mmio_gpa = gpa; mmio_size = size width;
           mmio_unsigned = false; mmio_data = regs.(rs2); mmio_reg = 0 }
  | _ -> Error "decode_mmio: trapping instruction is not a load or store"

let expose_mmio sh mmio ~htinst =
  sh.s_htinst <- htinst;
  sh.s_htval <- Int64.shift_right_logical mmio.mmio_gpa 2;
  sh.s_gpa <- mmio.mmio_gpa;
  sh.s_data <- mmio.mmio_data;
  sh.s_reg_index <- mmio.mmio_reg;
  sh.s_pc_advance <- 0L;
  (* htinst, htval, gpa, data: four exposed items. *)
  4

let absorb_mmio_result sh sv mmio =
  (* Check-after-Load: copy everything out of hypervisor-writable memory
     first, then validate the copies. *)
  let data = sh.s_data in
  let reg = sh.s_reg_index in
  let pc_adv = sh.s_pc_advance in
  let items = 4 in
  if pc_adv <> 4L then
    Error "check-after-load: pc advance must be 4 for uncompressed MMIO"
  else if reg <> mmio.mmio_reg then
    Error "check-after-load: hypervisor redirected the destination register"
  else if reg < 0 || reg > 31 then
    Error "check-after-load: register index out of range"
  else begin
    if not mmio.mmio_write && reg <> 0 then begin
      (* Sign behaviour mirrors the trapped load's width. *)
      let value =
        match (mmio.mmio_size, mmio.mmio_unsigned) with
        | 1, false -> Xword.sext data 8
        | 2, false -> Xword.sext data 16
        | 4, false -> Xword.sext32 data
        | 1, true -> Int64.logand data 0xFFL
        | 2, true -> Int64.logand data 0xFFFFL
        | 4, true -> Xword.zext32 data
        | _ -> data
      in
      sv.regs.(reg) <- value
    end;
    sv.pc <- Int64.add sv.pc pc_adv;
    Ok items
  end
