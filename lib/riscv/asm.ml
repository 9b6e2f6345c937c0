open Decode

let check_reg r =
  if r < 0 || r > 31 then invalid_arg "Asm: register out of range"

let check_imm name imm bits =
  let lo = Int64.neg (Int64.shift_left 1L (bits - 1)) in
  let hi = Int64.sub (Int64.shift_left 1L (bits - 1)) 1L in
  if Int64.compare imm lo < 0 || Int64.compare imm hi > 0 then
    invalid_arg (Printf.sprintf "Asm: %s immediate out of range" name)

let u32 fields = List.fold_left Int64.logor 0L fields
let f v ~at = Int64.shift_left (Int64.of_int v) at
let fbits v ~hi ~lo ~at = Int64.shift_left (Xword.bits v ~hi ~lo) at

let r_type ~funct7 ~rs2 ~rs1 ~funct3 ~rd ~opcode =
  check_reg rs2;
  check_reg rs1;
  check_reg rd;
  u32
    [
      f funct7 ~at:25; f rs2 ~at:20; f rs1 ~at:15; f funct3 ~at:12;
      f rd ~at:7; f opcode ~at:0;
    ]

let i_type ~imm ~rs1 ~funct3 ~rd ~opcode =
  check_reg rs1;
  check_reg rd;
  check_imm "I" imm 12;
  u32
    [
      fbits imm ~hi:11 ~lo:0 ~at:20; f rs1 ~at:15; f funct3 ~at:12;
      f rd ~at:7; f opcode ~at:0;
    ]

let s_type ~imm ~rs2 ~rs1 ~funct3 ~opcode =
  check_reg rs1;
  check_reg rs2;
  check_imm "S" imm 12;
  u32
    [
      fbits imm ~hi:11 ~lo:5 ~at:25; f rs2 ~at:20; f rs1 ~at:15;
      f funct3 ~at:12; fbits imm ~hi:4 ~lo:0 ~at:7; f opcode ~at:0;
    ]

let b_type ~imm ~rs2 ~rs1 ~funct3 =
  check_reg rs1;
  check_reg rs2;
  check_imm "B" imm 13;
  if Int64.rem imm 2L <> 0L then invalid_arg "Asm: branch offset must be even";
  u32
    [
      fbits imm ~hi:12 ~lo:12 ~at:31; fbits imm ~hi:10 ~lo:5 ~at:25;
      f rs2 ~at:20; f rs1 ~at:15; f funct3 ~at:12;
      fbits imm ~hi:4 ~lo:1 ~at:8; fbits imm ~hi:11 ~lo:11 ~at:7;
      f 0x63 ~at:0;
    ]

let u_type ~imm ~rd ~opcode =
  check_reg rd;
  (* imm is the sign-extended value of the upper 20 bits. *)
  if Int64.logand imm 0xFFFL <> 0L then
    invalid_arg "Asm: U immediate must be 4 KiB aligned";
  u32 [ fbits imm ~hi:31 ~lo:12 ~at:12; f rd ~at:7; f opcode ~at:0 ]

let j_type ~imm ~rd =
  check_reg rd;
  check_imm "J" imm 21;
  if Int64.rem imm 2L <> 0L then invalid_arg "Asm: jump offset must be even";
  u32
    [
      fbits imm ~hi:20 ~lo:20 ~at:31; fbits imm ~hi:10 ~lo:1 ~at:21;
      fbits imm ~hi:11 ~lo:11 ~at:20; fbits imm ~hi:19 ~lo:12 ~at:12;
      f rd ~at:7; f 0x6f ~at:0;
    ]

let alu_funct3 = function
  | Add | Sub -> 0
  | Sll -> 1
  | Slt -> 2
  | Sltu -> 3
  | Xor -> 4
  | Srl | Sra -> 5
  | Or -> 6
  | And -> 7

let muldiv_funct3 = function
  | Mul -> 0
  | Mulh -> 1
  | Mulhsu -> 2
  | Mulhu -> 3
  | Div -> 4
  | Divu -> 5
  | Rem -> 6
  | Remu -> 7

let load_funct3 width unsigned =
  match (width, unsigned) with
  | B, false -> 0
  | H, false -> 1
  | W, false -> 2
  | D, false -> 3
  | B, true -> 4
  | H, true -> 5
  | W, true -> 6
  | D, true -> invalid_arg "Asm: ldu does not exist"

let store_funct3 = function B -> 0 | H -> 1 | W -> 2 | D -> 3

let branch_funct3 = function
  | Beq -> 0
  | Bne -> 1
  | Blt -> 4
  | Bge -> 5
  | Bltu -> 6
  | Bgeu -> 7

let amo_funct5 = function
  | Lr -> 0x02
  | Sc -> 0x03
  | Amoswap -> 0x01
  | Amoadd -> 0x00
  | Amoxor -> 0x04
  | Amoand -> 0x0c
  | Amoor -> 0x08
  | Amomin -> 0x10
  | Amomax -> 0x14
  | Amominu -> 0x18
  | Amomaxu -> 0x1c

let encode = function
  | Lui (rd, imm) -> u_type ~imm ~rd ~opcode:0x37
  | Auipc (rd, imm) -> u_type ~imm ~rd ~opcode:0x17
  | Jal (rd, imm) -> j_type ~imm ~rd
  | Jalr (rd, rs1, imm) -> i_type ~imm ~rs1 ~funct3:0 ~rd ~opcode:0x67
  | Branch (op, rs1, rs2, imm) ->
      b_type ~imm ~rs2 ~rs1 ~funct3:(branch_funct3 op)
  | Load { rd; rs1; imm; width; unsigned } ->
      i_type ~imm ~rs1 ~funct3:(load_funct3 width unsigned) ~rd ~opcode:0x03
  | Store { rs1; rs2; imm; width } ->
      s_type ~imm ~rs2 ~rs1 ~funct3:(store_funct3 width) ~opcode:0x23
  | Op_imm (op, rd, rs1, imm) -> begin
      match op with
      | Sll | Srl | Sra ->
          if Int64.compare imm 0L < 0 || Int64.compare imm 63L > 0 then
            invalid_arg "Asm: shift amount out of range";
          (* RV64I shifts: funct6 in bits 31:26, 6-bit shamt in 25:20. *)
          let funct6 = if op = Sra then 0x10 else 0x00 in
          u32
            [
              f funct6 ~at:26; fbits imm ~hi:5 ~lo:0 ~at:20; f rs1 ~at:15;
              f (alu_funct3 op) ~at:12; f rd ~at:7; f 0x13 ~at:0;
            ]
      | Sub -> invalid_arg "Asm: subi does not exist (use addi -imm)"
      | Add | Slt | Sltu | Xor | Or | And ->
          i_type ~imm ~rs1 ~funct3:(alu_funct3 op) ~rd ~opcode:0x13
    end
  | Op_imm_w (op, rd, rs1, imm) -> begin
      match op with
      | Sll | Srl | Sra ->
          if Int64.compare imm 0L < 0 || Int64.compare imm 31L > 0 then
            invalid_arg "Asm: shift amount out of range";
          let funct7 = if op = Sra then 0x20 else 0x00 in
          u32
            [
              f funct7 ~at:25; fbits imm ~hi:4 ~lo:0 ~at:20; f rs1 ~at:15;
              f (alu_funct3 op) ~at:12; f rd ~at:7; f 0x1b ~at:0;
            ]
      | Add -> i_type ~imm ~rs1 ~funct3:0 ~rd ~opcode:0x1b
      | Sub | Slt | Sltu | Xor | Or | And ->
          invalid_arg "Asm: invalid W-immediate op"
    end
  | Op (op, rd, rs1, rs2) ->
      let funct7 = match op with Sub | Sra -> 0x20 | _ -> 0x00 in
      r_type ~funct7 ~rs2 ~rs1 ~funct3:(alu_funct3 op) ~rd ~opcode:0x33
  | Op_w (op, rd, rs1, rs2) ->
      let funct7 = match op with Sub | Sra -> 0x20 | _ -> 0x00 in
      r_type ~funct7 ~rs2 ~rs1 ~funct3:(alu_funct3 op) ~rd ~opcode:0x3b
  | Muldiv (op, rd, rs1, rs2) ->
      r_type ~funct7:0x01 ~rs2 ~rs1 ~funct3:(muldiv_funct3 op) ~rd
        ~opcode:0x33
  | Muldiv_w (op, rd, rs1, rs2) ->
      r_type ~funct7:0x01 ~rs2 ~rs1 ~funct3:(muldiv_funct3 op) ~rd
        ~opcode:0x3b
  | Amo { op; rd; rs1; rs2; width } ->
      let funct3 =
        match width with
        | W -> 2
        | D -> 3
        | B | H -> invalid_arg "Asm: AMO width must be W or D"
      in
      r_type ~funct7:(amo_funct5 op lsl 2) ~rs2 ~rs1 ~funct3 ~rd ~opcode:0x2f
  | Csr (op, rd, rs1, csrno) ->
      if csrno < 0 || csrno > 0xfff then invalid_arg "Asm: CSR out of range";
      let funct3 =
        match op with
        | Csrrw -> 1
        | Csrrs -> 2
        | Csrrc -> 3
        | Csrrwi -> 5
        | Csrrsi -> 6
        | Csrrci -> 7
      in
      check_reg rd;
      check_reg rs1;
      u32
        [
          f csrno ~at:20; f rs1 ~at:15; f funct3 ~at:12; f rd ~at:7;
          f 0x73 ~at:0;
        ]
  | Fence -> 0x0ff0000fL
  | Fence_i -> 0x0000100fL
  | Ecall -> 0x00000073L
  | Ebreak -> 0x00100073L
  | Sret -> 0x10200073L
  | Mret -> 0x30200073L
  | Wfi -> 0x10500073L
  | Sfence_vma (rs1, rs2) ->
      r_type ~funct7:0x09 ~rs2 ~rs1 ~funct3:0 ~rd:0 ~opcode:0x73
  | Hfence_gvma (rs1, rs2) ->
      r_type ~funct7:0x31 ~rs2 ~rs1 ~funct3:0 ~rd:0 ~opcode:0x73
  | Hfence_vvma (rs1, rs2) ->
      r_type ~funct7:0x11 ~rs2 ~rs1 ~funct3:0 ~rd:0 ~opcode:0x73
  | Illegal _ -> invalid_arg "Asm: cannot encode Illegal"

let program instrs =
  let b = Buffer.create (List.length instrs * 4) in
  List.iter
    (fun ins ->
      let w = encode ins in
      for i = 0 to 3 do
        Buffer.add_char b
          (Char.chr
             (Int64.to_int (Int64.shift_right_logical w (8 * i)) land 0xff))
      done)
    instrs;
  Buffer.contents b

let zero = 0
let ra = 1
let sp = 2
let gp = 3
let tp = 4
let t0 = 5
let t1 = 6
let t2 = 7
let s0 = 8
let s1 = 9
let a0 = 10
let a1 = 11
let a2 = 12
let a3 = 13
let a4 = 14
let a5 = 15
let a6 = 16
let a7 = 17

let j offset = Jal (0, offset)
let ret = Jalr (0, ra, 0L)

(* Load an arbitrary 64-bit immediate. Small values use addi; 32-bit
   values use lui+addi; wider values build the upper part then shift. *)
let rec li rd v =
  if Int64.compare v (-2048L) >= 0 && Int64.compare v 2047L <= 0 then
    [ Op_imm (Add, rd, 0, v) ]
  else if Int64.compare v (-0x80000000L) >= 0
          && Int64.compare v 0x7FFFFFFFL <= 0
  then begin
    (* lui loads imm<<12 sign-extended; adjust for the low 12 bits'
       sign when addi follows. *)
    let lo = Xword.sext (Int64.logand v 0xFFFL) 12 in
    let hi = Int64.sub v lo in
    if hi = 0L then [ Op_imm (Add, rd, 0, lo) ]
    else begin
      let hi_sext = Xword.sext32 hi in
      Lui (rd, Int64.logand hi_sext 0xFFFFF000L)
      :: (if lo = 0L then [] else [ Op_imm (Add, rd, rd, lo) ])
    end
  end
  else begin
    (* Build the upper 32 bits, then append the lower 32 in 11/11/10-bit
       chunks so every addi immediate stays non-negative. *)
    let upper = Int64.shift_right v 32 in
    let lower = Xword.zext32 v in
    li rd upper
    @ [
        Op_imm (Sll, rd, rd, 11L);
        Op_imm (Add, rd, rd, Xword.bits lower ~hi:31 ~lo:21);
        Op_imm (Sll, rd, rd, 11L);
        Op_imm (Add, rd, rd, Xword.bits lower ~hi:20 ~lo:10);
        Op_imm (Sll, rd, rd, 10L);
        Op_imm (Add, rd, rd, Xword.bits lower ~hi:9 ~lo:0);
      ]
  end
