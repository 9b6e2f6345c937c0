open Riscv.Decode
module Asm = Riscv.Asm
module Prng = Workloads.Prng

let nodes = 512
let pages = 128
let ring_base = 0x100000L
let cell = Int64.add ring_base 512L (* between nodes 0 and 1 *)
let n1 = 2000 (* rv8-style iterations per round *)
let n2 = 2000 (* CoreMark-style iterations per round *)
let full_rounds = 120
let quantum = Platform.Testbed.quantum_cycles

let node_gpa i =
  Int64.add ring_base (Int64.of_int ((i / 4 * 4096) + (i mod 4 * 1024)))

(* Registers beyond the Asm names. *)
let t3 = 28
let s4 = 20
let s5 = 21
let s6 = 22
let s3 = Code.s3

(* The loop bodies of [Platform.Exp_sim], counted instead of endless and
   re-assembled at guest-private GPAs: a mul/xor/store/load/AMO mix on
   one doubleword cell, then a pointer chase with a rotate-xor
   checksum over a ring that spans more pages than the TLB holds. *)
let rv8_loop =
  [
    Op_imm (Add, Asm.t1, Asm.t1, 1L);
    Muldiv (Mul, Asm.t2, Asm.t1, Asm.t1);
    Op (Add, Asm.a0, Asm.a0, Asm.t2);
    Op (Xor, Asm.a1, Asm.a1, Asm.a0);
    Store { rs1 = Asm.s0; rs2 = Asm.a0; imm = 0L; width = D };
    Load { rd = Asm.a2; rs1 = Asm.s0; imm = 0L; width = D; unsigned = false };
    Op_imm (Srl, Asm.a3, Asm.a2, 3L);
    Op (And, Asm.a4, Asm.a3, Asm.a1);
    Amo { op = Amoadd; rd = Asm.a5; rs1 = Asm.s0; rs2 = Asm.t1; width = D };
    Branch (Bne, Asm.t1, t3, -36L);
  ]

let coremark_loop =
  [
    Load { rd = Asm.t0; rs1 = Asm.t0; imm = 0L; width = D; unsigned = false };
    Load { rd = Asm.a7; rs1 = Asm.t0; imm = 8L; width = D; unsigned = false };
    Op (Xor, Asm.s1, Asm.s1, Asm.a7);
    Op_imm (Sll, Asm.t2, Asm.s1, 1L);
    Op_imm (Srl, Asm.a6, Asm.s1, 63L);
    Op (Or, Asm.s1, Asm.t2, Asm.a6);
    Op_imm (Add, s4, s4, 1L);
    Op_imm (And, Asm.t2, s4, 7L);
    Branch (Bne, Asm.t2, 0, 8L);
    Muldiv (Mul, s5, s4, Asm.s1);
    Op (Add, s5, s5, Asm.s1);
    Op_imm (Add, s3, s3, -1L);
    Branch (Bne, s3, 0, -48L);
  ]

(* Print [s6] as 16 lowercase hex digits, most significant first. *)
let print_hex =
  Asm.li s3 16L
  @ [
      Op_imm (Srl, Asm.t1, s6, 60L);
      Op_imm (Sll, s6, s6, 4L);
      Op_imm (Add, Asm.a0, Asm.t1, Int64.of_int (Char.code '0'));
      Op_imm (Slt, Asm.t2, Asm.t1, 10L);
      Branch (Bne, Asm.t2, 0, 8L);
      Op_imm (Add, Asm.a0, Asm.a0, Int64.of_int (Char.code 'a' - Char.code '0' - 10));
      Op_imm (Add, Asm.a7, 0, Zion.Ecall.sbi_legacy_putchar);
      Ecall;
      Op_imm (Add, s3, s3, -1L);
      Branch (Bne, s3, 0, -36L);
    ]

let kernel ~head ~rounds =
  let zero r = Op_imm (Add, r, 0, 0L) in
  Asm.li Asm.s0 cell
  @ Asm.li Asm.t0 head
  @ Asm.li t3 (Int64.of_int n1)
  @ List.map zero [ Asm.a0; Asm.a1; Asm.a4; Asm.a5; Asm.s1; s4; s5 ]
  @ Code.repeat ~times:rounds
      ((zero Asm.t1 :: rv8_loop) @ Asm.li s3 (Int64.of_int n2) @ coremark_loop)
  @ [
      Op (Xor, s6, Asm.a0, Asm.a1);
      Op (Xor, s6, s6, Asm.s1);
      Op (Xor, s6, s6, s5);
      Op (Xor, s6, s6, Asm.a4);
      Op (Xor, s6, s6, Asm.a5);
      Op (Xor, s6, s6, s4);
    ]
  @ print_hex @ Guest.Gprog.shutdown

(* The same kernel, evaluated in OCaml: the reference checksum. *)
let model ~next ~payload ~head ~rounds =
  let open Int64 in
  let a0 = ref 0L and a1 = ref 0L and a4 = ref 0L and a5 = ref 0L in
  let s1 = ref 0L and s4 = ref 0L and s5 = ref 0L and cur = ref head in
  for _ = 1 to rounds do
    for i = 1 to n1 do
      let t1 = of_int i in
      a0 := add !a0 (mul t1 t1);
      a1 := logxor !a1 !a0;
      a4 := logand (shift_right_logical !a0 3) !a1;
      a5 := !a0
    done;
    for _ = 1 to n2 do
      cur := next !cur;
      s1 := logxor !s1 (payload !cur);
      s1 := logor (shift_left !s1 1) (shift_right_logical !s1 63);
      s4 := add !s4 1L;
      if logand !s4 7L = 0L then s5 := mul !s4 !s1;
      s5 := add !s5 !s1
    done
  done;
  List.fold_left logxor !a0 [ !a1; !s1; !s5; !a4; !a5; !s4 ]

let prepare ~seed ~scale =
  let rounds = Workload.sized ~scale full_rounds in
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  (* Chase order: four laps over the pages in a seed-permuted order, one
     node of each page per lap. Every page recurs exactly [pages] steps
     later, so the chase misses the TLB alike for every seed and the
     seed moves addresses and payloads, not the miss rate. *)
  let page_order = Array.init pages Fun.id in
  Workload.shuffle rng page_order;
  let first_slot = Array.init pages (fun _ -> Prng.int_below rng 4) in
  let order =
    Array.init nodes (fun k ->
        let p = page_order.(k mod pages) in
        (p * 4) + ((first_slot.(p) + (k / pages)) mod 4))
  in
  let payloads = Array.init nodes (fun _ -> Prng.next rng) in
  let ring = Bytes.make (pages * 4096) '\000' in
  let off gpa = Int64.to_int (Int64.sub gpa ring_base) in
  let next = Hashtbl.create nodes and payload = Hashtbl.create nodes in
  Array.iteri
    (fun k node ->
      let gpa = node_gpa node in
      let succ = node_gpa order.((k + 1) mod nodes) in
      Bytes.set_int64_le ring (off gpa) succ;
      Bytes.set_int64_le ring (off gpa + 8) payloads.(node);
      Hashtbl.replace next gpa succ;
      Hashtbl.replace payload gpa payloads.(node))
    order;
  let head = node_gpa order.(0) in
  let expected =
    Printf.sprintf "%016Lx"
      (model ~next:(Hashtbl.find next) ~payload:(Hashtbl.find payload) ~head
         ~rounds)
  in
  let image =
    [ (Platform.Testbed.guest_entry, Riscv.Asm.program (kernel ~head ~rounds));
      (ring_base, Bytes.to_string ring) ]
  in
  fun arm obs ->
    let tb = Obs.testbed obs in
    let hart = tb.Platform.Testbed.machine.Riscv.Machine.harts.(0) in
    let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
    let instret () = Int64.to_int hart.Riscv.Hart.csr.Riscv.Csr.minstret in
    (match Workload.create_guest obs tb arm ~image with
    | Error e -> Obs.fail obs ~ops:0 e
    | Ok guest ->
        Obs.measure obs tb (fun () ->
            (* One sample per slice: its cycles per 1,000 instructions. *)
            let c0 = ref (Metrics.Ledger.now ledger) and i0 = ref (instret ()) in
            let after_slice n =
              let c = Metrics.Ledger.now ledger and i = instret () in
              if i > !i0 then Obs.sample obs ((c - !c0) * 1000 / (i - !i0));
              c0 := c;
              i0 := i;
              Obs.set_op obs (n + 1)
            in
            ignore (Obs.run_to_shutdown obs tb guest ~quantum ~after_slice : bool)));
    let ops = max 1 ((Obs.tally obs).instret / 1000) in
    let console = Riscv.Machine.console_output tb.Platform.Testbed.machine in
    if console <> expected then
      Obs.fail obs ~ops
        (Printf.sprintf "checksum %S, model says %S" console expected);
    ops

let workload =
  { Workload.name = "guest_compute"; op = "1,000 guest instructions"; prepare }
