let scratch = Int64.add Riscv.Bus.dram_base 0x40000L
let ring = Int64.add Riscv.Bus.dram_base 0x80000L

type workload = Rv8_mix | Coremark_mix | Rv8_mix_paged

let all = [ Rv8_mix; Coremark_mix; Rv8_mix_paged ]

let name = function
  | Rv8_mix -> "rv8_mix"
  | Coremark_mix -> "coremark_mix"
  | Rv8_mix_paged -> "rv8_mix_paged"

(* Arithmetic/memory mix in the style of the rv8 kernels: mul-accumulate,
   store/load round-trip, shifts, an AMO, and a counted inner loop. *)
let prog_rv8 =
  let open Riscv.Decode in
  List.concat
    [
      Riscv.Asm.li Riscv.Asm.s0 scratch;
      Riscv.Asm.li 28 (* t3 *) 4096L;
      [
        (* loop: *)
        Op_imm (Add, Riscv.Asm.t1, Riscv.Asm.t1, 1L);
        Muldiv (Mul, Riscv.Asm.t2, Riscv.Asm.t1, Riscv.Asm.t1);
        Op (Add, Riscv.Asm.a0, Riscv.Asm.a0, Riscv.Asm.t2);
        Op (Xor, Riscv.Asm.a1, Riscv.Asm.a1, Riscv.Asm.a0);
        Store { rs1 = Riscv.Asm.s0; rs2 = Riscv.Asm.a0; imm = 0L; width = D };
        Load
          {
            rd = Riscv.Asm.a2;
            rs1 = Riscv.Asm.s0;
            imm = 0L;
            width = D;
            unsigned = false;
          };
        Op_imm (Srl, Riscv.Asm.a3, Riscv.Asm.a2, 3L);
        Op (And, Riscv.Asm.a4, Riscv.Asm.a3, Riscv.Asm.a1);
        Amo
          {
            op = Amoadd;
            rd = Riscv.Asm.a5;
            rs1 = Riscv.Asm.s0;
            rs2 = Riscv.Asm.t1;
            width = D;
          };
        Branch (Bne, Riscv.Asm.t1, 28, -36L);
        Op_imm (Add, Riscv.Asm.t1, Riscv.Asm.zero, 0L);
        Riscv.Asm.j (-44L);
      ];
    ]

(* Pointer-chase + CRC-rotate + branchy state machine in the style of
   CoreMark's list/state/crc thirds. [t0] walks a 64-node ring that the
   harness lays out in scratch memory before the run. *)
let prog_coremark =
  let open Riscv.Decode in
  List.concat
    [
      Riscv.Asm.li Riscv.Asm.t0 ring;
      [
        (* loop: *)
        Load
          {
            rd = Riscv.Asm.t0;
            rs1 = Riscv.Asm.t0;
            imm = 0L;
            width = D;
            unsigned = false;
          };
        Op (Xor, Riscv.Asm.s1, Riscv.Asm.s1, Riscv.Asm.t0);
        Op_imm (Sll, Riscv.Asm.t2, Riscv.Asm.s1, 1L);
        Op_imm (Srl, Riscv.Asm.a3, Riscv.Asm.s1, 63L);
        Op (Or, Riscv.Asm.s1, Riscv.Asm.t2, Riscv.Asm.a3);
        Op_imm (Add, Riscv.Asm.a0, Riscv.Asm.a0, 1L);
        Op_imm (And, Riscv.Asm.t2, Riscv.Asm.a0, 7L);
        Branch (Beq, Riscv.Asm.t2, Riscv.Asm.zero, 12L);
        Op (Add, Riscv.Asm.a1, Riscv.Asm.a1, Riscv.Asm.s1);
        Riscv.Asm.j (-36L);
        Muldiv (Mul, Riscv.Asm.a1, Riscv.Asm.a0, Riscv.Asm.s1);
        Riscv.Asm.j (-44L);
      ];
    ]

let program = function
  | Rv8_mix | Rv8_mix_paged -> prog_rv8
  | Coremark_mix -> prog_coremark

let paged = function Rv8_mix_paged -> true | Rv8_mix | Coremark_mix -> false

type state = {
  clock : int;
  categories : (string * int) list;
  regs : int64 array;
  pc : int64;
  minstret : int64;
}

type run = {
  executed : int;
  seconds : float;
  state : state;
  stats : Riscv.Hart.fast_path_stats;
}

(* One measured run: fresh machine, workload installed, [steps]
   architectural steps. Paged workloads run in HS mode under an Sv39
   identity megapage so the translation memos, TLB statistics and
   page-walk charges are all on the measured path. *)
let run workload ~fast ~steps =
  let open Riscv in
  let m = Machine.create ~dram_size:(Int64.of_int (64 * 1024 * 1024)) () in
  let hart = Machine.hart m 0 in
  Hart.set_fast_path hart fast;
  Machine.load_program m Bus.dram_base (program workload);
  (* pointer ring for the CoreMark-like chase *)
  let dram = Bus.dram m.Machine.bus in
  let ring_off = Int64.sub ring Bus.dram_base in
  for i = 0 to 63 do
    Physmem.write_u64 dram
      (Int64.add ring_off (Int64.of_int (i * 64)))
      (Int64.add ring (Int64.of_int ((i + 1) mod 64 * 64)))
  done;
  hart.Hart.pc <- Bus.dram_base;
  if paged workload then begin
    (* Identity-map the first 2 MiB of DRAM with one Sv39 megapage;
       the page tables live above it, reached physically by the
       walker. PMP entry 0 opens DRAM to HS mode. *)
    let root_off = 0x200000L in
    let root = Int64.add Bus.dram_base root_off in
    let l1 = Int64.add root 0x1000L in
    Physmem.write_u64 dram
      (Int64.add root_off (Int64.of_int (2 * 8)))
      (Pte.make_pointer ~ppn:(Int64.shift_right_logical l1 12));
    Physmem.write_u64 dram
      (Int64.add root_off 0x1000L)
      (Pte.make
         ~ppn:(Int64.shift_right_logical Bus.dram_base 12)
         ~r:true ~w:true ~x:true ~valid:true ());
    Pmp.set_napot_region hart.Hart.csr.Csr.pmp 0 ~base:Bus.dram_base
      ~size:(Int64.of_int (64 * 1024 * 1024))
      ~r:true ~w:true ~x:true;
    hart.Hart.csr.Csr.satp <- Sv39.satp_of ~asid:1 ~root;
    hart.Hart.mode <- Priv.HS
  end;
  let t0 = Sys.time () in
  let executed = Machine.run_hart m 0 ~max_steps:steps in
  let seconds = Sys.time () -. t0 in
  {
    executed;
    seconds;
    state =
      {
        clock = Metrics.Ledger.now m.Machine.ledger;
        categories = Metrics.Ledger.categories m.Machine.ledger;
        regs = Array.copy hart.Hart.regs;
        pc = hart.Hart.pc;
        minstret = hart.Hart.csr.Csr.minstret;
      };
    stats = Hart.fast_path_stats hart;
  }

type ab = {
  workload : workload;
  baseline_ips : float;
  fast_ips : float;
  speedup : float;
  speedup_p25 : float;
  speedup_p75 : float;
  identical : bool;
  fast_stats : Riscv.Hart.fast_path_stats;
}

let pairs = 5

(* Timed over [pairs] interleaved pairs ([Metrics.Stats.interleaved_pairs]).
   Every run is a fresh machine, so every run's state must equal the
   first one's. *)
let ab_compare workload ~steps =
  let first = ref None and identical = ref true in
  let fast_stats = ref None in
  let timed ~on:fast =
    let r = run workload ~fast ~steps in
    assert (r.executed = steps);
    (match !first with
    | None -> first := Some r.state
    | Some s -> if r.state <> s then identical := false);
    if fast then fast_stats := Some r.stats;
    r.seconds
  in
  let slow, fast = Metrics.Stats.interleaved_pairs ~pairs timed in
  let speedups = Array.init pairs (fun i -> slow.(i) /. fast.(i)) in
  let q p xs = Metrics.Stats.percentile p xs in
  let ips seconds = float_of_int steps /. seconds in
  {
    workload;
    baseline_ips = ips (q 50. slow);
    fast_ips = ips (q 50. fast);
    speedup = q 50. speedups;
    speedup_p25 = q 25. speedups;
    speedup_p75 = q 75. speedups;
    identical = !identical;
    fast_stats = Option.get !fast_stats;
  }
