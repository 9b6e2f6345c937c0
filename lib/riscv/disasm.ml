open Decode

let reg_names =
  [|
    "zero"; "ra"; "sp"; "gp"; "tp"; "t0"; "t1"; "t2"; "s0"; "s1"; "a0"; "a1";
    "a2"; "a3"; "a4"; "a5"; "a6"; "a7"; "s2"; "s3"; "s4"; "s5"; "s6"; "s7";
    "s8"; "s9"; "s10"; "s11"; "t3"; "t4"; "t5"; "t6";
  |]

let reg_name r =
  if r >= 0 && r < 32 then reg_names.(r) else Printf.sprintf "x%d" r

let alu_name = function
  | Add -> "add"
  | Sub -> "sub"
  | Sll -> "sll"
  | Slt -> "slt"
  | Sltu -> "sltu"
  | Xor -> "xor"
  | Srl -> "srl"
  | Sra -> "sra"
  | Or -> "or"
  | And -> "and"

let muldiv_name = function
  | Mul -> "mul"
  | Mulh -> "mulh"
  | Mulhsu -> "mulhsu"
  | Mulhu -> "mulhu"
  | Div -> "div"
  | Divu -> "divu"
  | Rem -> "rem"
  | Remu -> "remu"

let branch_name = function
  | Beq -> "beq"
  | Bne -> "bne"
  | Blt -> "blt"
  | Bge -> "bge"
  | Bltu -> "bltu"
  | Bgeu -> "bgeu"

let width_suffix = function B -> "b" | H -> "h" | W -> "w" | D -> "d"

let amo_name = function
  | Lr -> "lr"
  | Sc -> "sc"
  | Amoswap -> "amoswap"
  | Amoadd -> "amoadd"
  | Amoxor -> "amoxor"
  | Amoand -> "amoand"
  | Amoor -> "amoor"
  | Amomin -> "amomin"
  | Amomax -> "amomax"
  | Amominu -> "amominu"
  | Amomaxu -> "amomaxu"

let csrop_name = function
  | Csrrw -> "csrrw"
  | Csrrs -> "csrrs"
  | Csrrc -> "csrrc"
  | Csrrwi -> "csrrwi"
  | Csrrsi -> "csrrsi"
  | Csrrci -> "csrrci"

let r = reg_name

let to_string = function
  | Lui (rd, imm) -> Printf.sprintf "lui %s, %Ld" (r rd) imm
  | Auipc (rd, imm) -> Printf.sprintf "auipc %s, %Ld" (r rd) imm
  | Jal (rd, imm) -> Printf.sprintf "jal %s, %Ld" (r rd) imm
  | Jalr (rd, rs1, imm) ->
      Printf.sprintf "jalr %s, %Ld(%s)" (r rd) imm (r rs1)
  | Branch (op, rs1, rs2, imm) ->
      Printf.sprintf "%s %s, %s, %Ld" (branch_name op) (r rs1) (r rs2) imm
  | Load { rd; rs1; imm; width; unsigned } ->
      Printf.sprintf "l%s%s %s, %Ld(%s)" (width_suffix width)
        (if unsigned then "u" else "")
        (r rd) imm (r rs1)
  | Store { rs1; rs2; imm; width } ->
      Printf.sprintf "s%s %s, %Ld(%s)" (width_suffix width) (r rs2) imm
        (r rs1)
  | Op_imm (Sltu, rd, rs1, imm) ->
      Printf.sprintf "sltiu %s, %s, %Ld" (r rd) (r rs1) imm
  | Op_imm (op, rd, rs1, imm) ->
      Printf.sprintf "%si %s, %s, %Ld" (alu_name op) (r rd) (r rs1) imm
  | Op_imm_w (op, rd, rs1, imm) ->
      Printf.sprintf "%siw %s, %s, %Ld" (alu_name op) (r rd) (r rs1) imm
  | Op (op, rd, rs1, rs2) ->
      Printf.sprintf "%s %s, %s, %s" (alu_name op) (r rd) (r rs1) (r rs2)
  | Op_w (op, rd, rs1, rs2) ->
      Printf.sprintf "%sw %s, %s, %s" (alu_name op) (r rd) (r rs1) (r rs2)
  | Muldiv (op, rd, rs1, rs2) ->
      Printf.sprintf "%s %s, %s, %s" (muldiv_name op) (r rd) (r rs1) (r rs2)
  | Muldiv_w (op, rd, rs1, rs2) ->
      Printf.sprintf "%sw %s, %s, %s" (muldiv_name op) (r rd) (r rs1)
        (r rs2)
  | Amo { op; rd; rs1; rs2; width } ->
      Printf.sprintf "%s.%s %s, %s, (%s)" (amo_name op) (width_suffix width)
        (r rd) (r rs2) (r rs1)
  | Csr (op, rd, rs1, csrno) ->
      Printf.sprintf "%s %s, 0x%x, %s" (csrop_name op) (r rd) csrno
        (match op with
        | Csrrwi | Csrrsi | Csrrci -> string_of_int rs1
        | Csrrw | Csrrs | Csrrc -> r rs1)
  | Fence -> "fence"
  | Fence_i -> "fence.i"
  | Ecall -> "ecall"
  | Ebreak -> "ebreak"
  | Sret -> "sret"
  | Mret -> "mret"
  | Wfi -> "wfi"
  | Sfence_vma (rs1, rs2) ->
      Printf.sprintf "sfence.vma %s, %s" (r rs1) (r rs2)
  | Hfence_gvma (rs1, rs2) ->
      Printf.sprintf "hfence.gvma %s, %s" (r rs1) (r rs2)
  | Hfence_vvma (rs1, rs2) ->
      Printf.sprintf "hfence.vvma %s, %s" (r rs1) (r rs2)
  | Illegal w -> Printf.sprintf ".word 0x%Lx" w

let of_word w = to_string (decode w)
