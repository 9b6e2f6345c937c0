open Decode

exception Halt of int64

let alu_compute op a b =
  match op with
  | Add -> Int64.add a b
  | Sub -> Int64.sub a b
  | Sll -> Int64.shift_left a (Int64.to_int (Int64.logand b 0x3FL))
  | Slt -> if Int64.compare a b < 0 then 1L else 0L
  | Sltu -> if Xword.ult a b then 1L else 0L
  | Xor -> Int64.logxor a b
  | Srl -> Int64.shift_right_logical a (Int64.to_int (Int64.logand b 0x3FL))
  | Sra -> Int64.shift_right a (Int64.to_int (Int64.logand b 0x3FL))
  | Or -> Int64.logor a b
  | And -> Int64.logand a b

let alu_compute_w op a b =
  let a32 = Xword.sext32 a and shamt = Int64.to_int (Int64.logand b 0x1FL) in
  let r =
    match op with
    | Add -> Int64.add a32 (Xword.sext32 b)
    | Sub -> Int64.sub a32 (Xword.sext32 b)
    | Sll -> Int64.shift_left a32 shamt
    | Srl -> Int64.shift_right_logical (Xword.zext32 a) shamt
    | Sra -> Int64.shift_right a32 shamt
    | Slt | Sltu | Xor | Or | And -> invalid_arg "exec: no W variant"
  in
  Xword.sext32 r

(* 128-bit high multiply via 32-bit limbs. *)
let mulhu_64 a b =
  let mask = 0xFFFFFFFFL in
  let a0 = Int64.logand a mask and a1 = Int64.shift_right_logical a 32 in
  let b0 = Int64.logand b mask and b1 = Int64.shift_right_logical b 32 in
  let p00 = Int64.mul a0 b0 in
  let p01 = Int64.mul a0 b1 in
  let p10 = Int64.mul a1 b0 in
  let p11 = Int64.mul a1 b1 in
  let mid =
    Int64.add
      (Int64.add (Int64.shift_right_logical p00 32) (Int64.logand p01 mask))
      (Int64.logand p10 mask)
  in
  Int64.add
    (Int64.add p11 (Int64.shift_right_logical mid 32))
    (Int64.add
       (Int64.shift_right_logical p01 32)
       (Int64.shift_right_logical p10 32))

let mulh_64 a b =
  (* signed high product from the unsigned one *)
  let u = mulhu_64 a b in
  let u = if Int64.compare a 0L < 0 then Int64.sub u b else u in
  if Int64.compare b 0L < 0 then Int64.sub u a else u

let mulhsu_64 a b =
  let u = mulhu_64 a b in
  if Int64.compare a 0L < 0 then Int64.sub u b else u

let muldiv_compute op a b =
  match op with
  | Mul -> Int64.mul a b
  | Mulh -> mulh_64 a b
  | Mulhsu -> mulhsu_64 a b
  | Mulhu -> mulhu_64 a b
  | Div ->
      if b = 0L then -1L
      else if a = Int64.min_int && b = -1L then Int64.min_int
      else Int64.div a b
  | Divu -> if b = 0L then -1L else Xword.udiv a b
  | Rem ->
      if b = 0L then a
      else if a = Int64.min_int && b = -1L then 0L
      else Int64.rem a b
  | Remu -> if b = 0L then a else Xword.urem a b

let muldiv_compute_w op a b =
  let a32 = Xword.sext32 a and b32 = Xword.sext32 b in
  let r =
    match op with
    | Mul -> Int64.mul a32 b32
    | Div ->
        if b32 = 0L then -1L
        else if a32 = Xword.sext32 0x80000000L && b32 = -1L then a32
        else Int64.div a32 b32
    | Divu ->
        let au = Xword.zext32 a and bu = Xword.zext32 b in
        if bu = 0L then -1L else Xword.udiv au bu
    | Rem ->
        if b32 = 0L then a32
        else if a32 = Xword.sext32 0x80000000L && b32 = -1L then 0L
        else Int64.rem a32 b32
    | Remu ->
        let au = Xword.zext32 a and bu = Xword.zext32 b in
        if bu = 0L then a32 else Xword.urem au bu
    | Mulh | Mulhsu | Mulhu -> invalid_arg "exec: no W variant"
  in
  Xword.sext32 r

let width_bytes = function B -> 1 | H -> 2 | W -> 4 | D -> 8

let load_result v width unsigned =
  match (width, unsigned) with
  | B, false -> Xword.sext v 8
  | H, false -> Xword.sext v 16
  | W, false -> Xword.sext32 v
  | D, _ -> v
  | B, true -> Int64.logand v 0xFFL
  | H, true -> Int64.logand v 0xFFFFL
  | W, true -> Xword.zext32 v

let ecall_cause (mode : Priv.t) =
  match mode with
  | Priv.U | Priv.VU -> Cause.Ecall_from_u
  | Priv.HS -> Cause.Ecall_from_hs
  | Priv.VS -> Cause.Ecall_from_vs
  | Priv.M -> Cause.Ecall_from_m

(* Record the trapping instruction for MMIO emulation: a simplified
   htinst/mtinst containing the raw instruction word. *)
let record_tinst (hart : Hart.t) word =
  hart.Hart.csr.Csr.htinst <- word;
  hart.Hart.csr.Csr.mtinst <- word

let exec_instr (hart : Hart.t) word instr =
  let cost = hart.Hart.cost in
  let next = Int64.add hart.Hart.pc 4L in
  let rd_set = Hart.set_reg hart in
  let reg = Hart.get_reg hart in
  match instr with
  | Lui (rd, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_alu cost.Cost.alu;
      rd_set rd imm;
      hart.Hart.pc <- next
  | Auipc (rd, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_alu cost.Cost.alu;
      rd_set rd (Int64.add hart.Hart.pc imm);
      hart.Hart.pc <- next
  | Jal (rd, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_jump cost.Cost.jump;
      rd_set rd next;
      hart.Hart.pc <- Int64.add hart.Hart.pc imm
  | Jalr (rd, rs1, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_jump cost.Cost.jump;
      let target = Int64.logand (Int64.add (reg rs1) imm) (-2L) in
      rd_set rd next;
      hart.Hart.pc <- target
  | Branch (op, rs1, rs2, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_branch cost.Cost.branch;
      let a = reg rs1 and b = reg rs2 in
      let taken =
        match op with
        | Beq -> a = b
        | Bne -> a <> b
        | Blt -> Int64.compare a b < 0
        | Bge -> Int64.compare a b >= 0
        | Bltu -> Xword.ult a b
        | Bgeu -> not (Xword.ult a b)
      in
      hart.Hart.pc <- (if taken then Int64.add hart.Hart.pc imm else next)
  | Load { rd; rs1; imm; width; unsigned } ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_load cost.Cost.load;
      let va = Int64.add (reg rs1) imm in
      record_tinst hart word;
      let v = Hart.read_mem hart va (width_bytes width) in
      rd_set rd (load_result v width unsigned);
      hart.Hart.pc <- next
  | Store { rs1; rs2; imm; width } ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_store cost.Cost.store;
      let va = Int64.add (reg rs1) imm in
      record_tinst hart word;
      Hart.write_mem hart va (width_bytes width) (reg rs2);
      hart.Hart.pc <- next
  | Op_imm (op, rd, rs1, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_alu cost.Cost.alu;
      rd_set rd (alu_compute op (reg rs1) imm);
      hart.Hart.pc <- next
  | Op_imm_w (op, rd, rs1, imm) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_alu cost.Cost.alu;
      rd_set rd (alu_compute_w op (reg rs1) imm);
      hart.Hart.pc <- next
  | Op (op, rd, rs1, rs2) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_alu cost.Cost.alu;
      rd_set rd (alu_compute op (reg rs1) (reg rs2));
      hart.Hart.pc <- next
  | Op_w (op, rd, rs1, rs2) ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_alu cost.Cost.alu;
      rd_set rd (alu_compute_w op (reg rs1) (reg rs2));
      hart.Hart.pc <- next
  | Muldiv (op, rd, rs1, rs2) ->
      let c =
        match op with
        | Mul | Mulh | Mulhsu | Mulhu -> cost.Cost.mul
        | Div | Divu | Rem | Remu -> cost.Cost.div
      in
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_muldiv c;
      rd_set rd (muldiv_compute op (reg rs1) (reg rs2));
      hart.Hart.pc <- next
  | Muldiv_w (op, rd, rs1, rs2) ->
      let c =
        match op with
        | Mul | Mulh | Mulhsu | Mulhu -> cost.Cost.mul
        | Div | Divu | Rem | Remu -> cost.Cost.div
      in
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_muldiv c;
      rd_set rd (muldiv_compute_w op (reg rs1) (reg rs2));
      hart.Hart.pc <- next
  | Amo { op; rd; rs1; rs2; width } -> begin
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_amo (cost.Cost.load + cost.Cost.store);
      let va = reg rs1 in
      let len = width_bytes width in
      let sext v = if width = W then Xword.sext32 v else v in
      match op with
      | Lr ->
          let v = Hart.read_mem hart va len in
          hart.Hart.reservation <- Some va;
          rd_set rd (sext v);
          hart.Hart.pc <- next
      | Sc ->
          if hart.Hart.reservation = Some va then begin
            Hart.write_mem hart va len (reg rs2);
            hart.Hart.reservation <- None;
            rd_set rd 0L
          end
          else begin
            hart.Hart.reservation <- None;
            rd_set rd 1L
          end;
          hart.Hart.pc <- next
      | Amoswap | Amoadd | Amoxor | Amoand | Amoor | Amomin | Amomax
      | Amominu | Amomaxu ->
          (* Both halves of an AMO use Store/AMO fault causes and
             require write permission; only LR keeps Load-class. *)
          let old = sext (Hart.amo_read_mem hart va len) in
          let src = reg rs2 in
          let nv =
            match op with
            | Amoswap -> src
            | Amoadd -> Int64.add old src
            | Amoxor -> Int64.logxor old src
            | Amoand -> Int64.logand old src
            | Amoor -> Int64.logor old src
            | Amomin -> if Int64.compare old src < 0 then old else src
            | Amomax -> if Int64.compare old src > 0 then old else src
            | Amominu -> if Xword.ult old src then old else src
            | Amomaxu -> if Xword.ult src old then old else src
            | Lr | Sc -> assert false
          in
          Hart.write_mem hart va len nv;
          rd_set rd old;
          hart.Hart.pc <- next
    end
  | Csr (op, rd, rs1, csrno) -> begin
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_csr cost.Cost.csr;
      let csr = hart.Hart.csr in
      let src =
        match op with
        | Csrrw | Csrrs | Csrrc -> reg rs1
        | Csrrwi | Csrrsi | Csrrci -> Int64.of_int rs1
      in
      match
        let old =
          (* csrrw with rd=x0 skips the read per spec; harmless to read
             here since our reads have no side effects. *)
          Csr.read csr ~priv:hart.Hart.mode csrno
        in
        let write_needed =
          match op with
          | Csrrw | Csrrwi -> true
          | Csrrs | Csrrsi | Csrrc | Csrrci -> rs1 <> 0
        in
        if write_needed then begin
          let nv =
            match op with
            | Csrrw | Csrrwi -> src
            | Csrrs | Csrrsi -> Int64.logor old src
            | Csrrc | Csrrci -> Int64.logand old (Int64.lognot src)
          in
          Csr.write csr ~priv:hart.Hart.mode csrno nv
        end;
        old
      with
      | old ->
          rd_set rd old;
          hart.Hart.pc <- next
      | exception Csr.Illegal_access _ ->
          (* From a virtualised mode a disallowed CSR raises a virtual
             instruction exception; otherwise illegal instruction. *)
          if Priv.virtualized hart.Hart.mode then
            raise (Hart.Trap_exn (Cause.Virtual_instruction, word, 0L))
          else raise (Hart.Trap_exn (Cause.Illegal_instruction, word, 0L))
    end
  | Fence ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_fence cost.Cost.fence;
      hart.Hart.pc <- next
  | Fence_i ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_fence cost.Cost.fence;
      (* fence.i orders stores before fetches: drop the decoded-
         instruction cache (the write-generation check already makes
         stale decodes impossible; this is the architectural hook). *)
      Hart.flush_decode_cache hart;
      hart.Hart.pc <- next
  | Ecall -> raise (Hart.Trap_exn (ecall_cause hart.Hart.mode, 0L, 0L))
  | Ebreak ->
      if hart.Hart.mode = Priv.M then raise (Halt (Hart.get_reg hart 10))
      else raise (Hart.Trap_exn (Cause.Breakpoint, hart.Hart.pc, 0L))
  | Sret -> begin
      match hart.Hart.mode with
      | Priv.M | Priv.HS | Priv.VS -> Trap.sret hart
      | Priv.U | Priv.VU ->
          raise (Hart.Trap_exn (Cause.Illegal_instruction, word, 0L))
    end
  | Mret ->
      if hart.Hart.mode = Priv.M then Trap.mret hart
      else raise (Hart.Trap_exn (Cause.Illegal_instruction, word, 0L))
  | Wfi ->
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_wfi cost.Cost.alu;
      hart.Hart.wfi_stalled <- true;
      hart.Hart.pc <- next
  | Sfence_vma (rs1, rs2) ->
      (* Operand-scoped invalidation: rs1 carries a virtual address,
         rs2 an ASID; x0 means "all". A guest sfence is additionally
         confined to its own VMID. The cycle charge stays the full-
         flush cost — operand decode doesn't change the modelled
         shootdown latency. *)
      Metrics.Ledger.tick hart.Hart.cnt.Hart.c_fence cost.Cost.tlb_full_flush;
      let tlb = hart.Hart.tlb in
      let vmid =
        if Priv.virtualized hart.Hart.mode then Some (Hart.vmid hart)
        else None
      in
      (if rs1 = 0 && rs2 = 0 then
         match vmid with
         | Some v -> Tlb.flush_vmid tlb v
         | None -> Tlb.flush_all tlb
       else if rs1 = 0 then
         Tlb.flush_asid ?vmid tlb
           (Int64.to_int (Int64.logand (reg rs2) 0xFFFFL))
       else if rs2 = 0 then Tlb.flush_page ?vmid tlb (reg rs1)
       else
         Tlb.flush_page
           ~asid:(Int64.to_int (Int64.logand (reg rs2) 0xFFFFL))
           ?vmid tlb (reg rs1));
      hart.Hart.pc <- next
  | Hfence_gvma (_, rs2) ->
      if Priv.virtualized hart.Hart.mode then
        raise (Hart.Trap_exn (Cause.Virtual_instruction, word, 0L))
      else begin
        Metrics.Ledger.tick hart.Hart.cnt.Hart.c_fence cost.Cost.tlb_full_flush;
        (* rs1 would scope by guest-physical page, but the TLB caches
           merged two-stage entries keyed by guest VA — a GPA cannot
           select them, so only the VMID operand narrows the flush
           (over-invalidation is always permitted). *)
        (if rs2 = 0 then Tlb.flush_all hart.Hart.tlb
         else
           Tlb.flush_vmid hart.Hart.tlb
             (Int64.to_int (Int64.logand (reg rs2) 0x3FFFL)));
        hart.Hart.pc <- next
      end
  | Hfence_vvma (rs1, rs2) ->
      if Priv.virtualized hart.Hart.mode then
        raise (Hart.Trap_exn (Cause.Virtual_instruction, word, 0L))
      else begin
        Metrics.Ledger.tick hart.Hart.cnt.Hart.c_fence cost.Cost.tlb_full_flush;
        (* VS-stage fence for the guest currently selected by hgatp;
           rs1 = guest VA, rs2 = guest ASID. *)
        let tlb = hart.Hart.tlb in
        let vmid = Sv39.vmid_of_hgatp hart.Hart.csr.Csr.hgatp in
        (if rs1 = 0 && rs2 = 0 then Tlb.flush_vmid tlb vmid
         else if rs1 = 0 then
           Tlb.flush_asid ~vmid tlb
             (Int64.to_int (Int64.logand (reg rs2) 0xFFFFL))
         else if rs2 = 0 then Tlb.flush_page ~vmid tlb (reg rs1)
         else
           Tlb.flush_page
             ~asid:(Int64.to_int (Int64.logand (reg rs2) 0xFFFFL))
             ~vmid tlb (reg rs1));
        hart.Hart.pc <- next
      end
  | Illegal w -> raise (Hart.Trap_exn (Cause.Illegal_instruction, w, 0L))

let update_timer_pending (hart : Hart.t) =
  let clint = Bus.clint hart.Hart.bus in
  let pending = Clint.timer_pending clint hart.Hart.id in
  let mip = hart.Hart.csr.Csr.mip in
  let code = Cause.interrupt_code Cause.Machine_timer in
  hart.Hart.csr.Csr.mip <-
    Xword.set_bits mip ~hi:code ~lo:code (if pending then 1L else 0L);
  let swi = Clint.msip clint hart.Hart.id in
  let scode = Cause.interrupt_code Cause.Machine_software in
  hart.Hart.csr.Csr.mip <-
    Xword.set_bits hart.Hart.csr.Csr.mip ~hi:scode ~lo:scode
      (if swi then 1L else 0L)

(* Memoised form of [update_timer_pending]: the forced mip bits can
   only change when mtime crosses the memoised threshold, the CLINT
   configuration generation moves, mip was written behind our back, or
   time went backwards (ledger reset). Any of those recomputes exactly
   as the slow path does; otherwise the bits provably already hold the
   values the slow path would force. *)
let sync_clint_mip (hart : Hart.t) =
  let fp = hart.Hart.fp in
  let clint = Bus.clint hart.Hart.bus in
  let time = Clint.mtime clint in
  let cg = Clint.generation clint in
  let csr = hart.Hart.csr in
  let mip = csr.Csr.mip in
  if
    fp.Hart.cl_gen = cg
    && Xword.bit mip 7 = fp.Hart.cl_mtip
    && Xword.bit mip 3 = fp.Hart.cl_msip
    && not (Xword.ult time fp.Hart.cl_last_time)
    && Xword.ult time fp.Hart.cl_poll_at
  then fp.Hart.cl_last_time <- time
  else begin
    update_timer_pending hart;
    fp.Hart.cl_gen <- cg;
    fp.Hart.cl_mtip <- Xword.bit csr.Csr.mip 7;
    fp.Hart.cl_msip <- Xword.bit csr.Csr.mip 3;
    fp.Hart.cl_last_time <- time;
    fp.Hart.cl_poll_at <-
      (if fp.Hart.cl_mtip then Int64.max_int
       else Clint.mtimecmp clint hart.Hart.id)
  end

let trace = ref false
let profile : Metrics.Profile.t option ref = ref None

let step (hart : Hart.t) =
  if !trace then
    Printf.eprintf "[trace] mode=%s pc=%Lx\n%!" (Priv.to_string hart.Hart.mode) hart.Hart.pc;
  let fast = Hart.fast_path_enabled hart in
  if fast then sync_clint_mip hart else update_timer_pending hart;
  let no_interrupt_possible =
    (* (mip | hvip when virtualised) & mie = 0 makes pending_and_enabled
       false for every cause, so the priority scan must return None. *)
    fast
    &&
    let csr = hart.Hart.csr in
    let pend =
      if Priv.virtualized hart.Hart.mode then
        Int64.logor csr.Csr.mip csr.Csr.hvip
      else csr.Csr.mip
    in
    Int64.equal (Int64.logand pend csr.Csr.mie) 0L
  in
  match
    if no_interrupt_possible then None else Trap.pending_interrupt hart
  with
  | Some i ->
      hart.Hart.wfi_stalled <- false;
      Trap.take hart (Cause.Interrupt i) ~tval:0L ~tval2:0L
  | None ->
      if hart.Hart.wfi_stalled then ()
      else begin
        let pc_before = hart.Hart.pc in
        match Hart.fetch_decoded hart with
        | word, instr -> begin
            try
              exec_instr hart word instr;
              hart.Hart.csr.Csr.minstret <-
                Int64.add hart.Hart.csr.Csr.minstret 1L;
              (match !profile with
              | None -> ()
              | Some p ->
                  let left = hart.Hart.sample_in - 1 in
                  if left > 0 then hart.Hart.sample_in <- left
                  else begin
                    hart.Hart.sample_in <- Metrics.Profile.interval p;
                    Metrics.Profile.record p ~hart:hart.Hart.id ~pc:pc_before
                  end)
            with Hart.Trap_exn (e, tval, tval2) ->
              hart.Hart.pc <- pc_before;
              Trap.take hart (Cause.Exception e) ~tval ~tval2
          end
        | exception Hart.Trap_exn (e, tval, tval2) ->
            Trap.take hart (Cause.Exception e) ~tval ~tval2
      end

let run hart ~max_steps =
  let steps = ref 0 in
  (try
     while !steps < max_steps do
       step hart;
       incr steps;
       (* [step] refreshed mip from the CLINT, so this sees fresh state. *)
       if hart.Hart.wfi_stalled && Trap.pending_interrupt hart = None then
         raise Exit
     done
   with Exit -> ());
  !steps
