(* Fast-path invisibility: differential oracle (cached vs uncached
   stepping) over random guest programs, planted-stale-decode cases for
   every invalidation edge, and regressions for the hot-loop fixes that
   rode along (range PMP checks, uncharged TLB-fill probes, Store-class
   AMO causes, operand-scoped fences). *)

open Riscv

let dram_size = Int64.of_int (8 * 1024 * 1024)
let scratch = Int64.add Bus.dram_base 0x40000L

let fresh ~fast prog =
  let m = Machine.create ~dram_size () in
  let hart = Machine.hart m 0 in
  Hart.set_fast_path hart fast;
  Machine.load_program m Bus.dram_base prog;
  hart.Hart.pc <- Bus.dram_base;
  m

(* Everything architecturally visible: registers, pc, mode, the trap
   CSRs, retired-instruction count, the full cycle ledger and the TLB
   statistics (a memo hit must count exactly like the lookup it
   replaces). *)
let obs m =
  let h = Machine.hart m 0 in
  let csr = h.Hart.csr in
  ( Array.copy h.Hart.regs,
    h.Hart.pc,
    h.Hart.mode,
    csr.Csr.minstret,
    csr.Csr.mstatus,
    csr.Csr.mcause,
    csr.Csr.mepc,
    csr.Csr.mtval,
    Metrics.Ledger.now m.Machine.ledger,
    List.sort compare (Metrics.Ledger.categories m.Machine.ledger),
    (Tlb.hits h.Hart.tlb, Tlb.misses h.Hart.tlb) )

(* Run the same program through both interpreters, with an optional
   mid-run mutation (host DMA, scrub, remap...), and insist the two
   worlds are indistinguishable. Returns the fast-arm machine for
   extra assertions. *)
let two_phase ?(steps1 = 0) ?(mutate = fun _ -> ())
    ?(setup_first = fun (_ : Machine.t) -> ()) ~steps2 prog =
  let go fast =
    let m = fresh ~fast prog in
    setup_first m;
    let n1 =
      if steps1 > 0 then Machine.run_hart m 0 ~max_steps:steps1 else 0
    in
    mutate m;
    let n2 = Machine.run_hart m 0 ~max_steps:steps2 in
    ((n1, n2), obs m, m)
  in
  let na, oa, _ = go false in
  let nb, ob, mb = go true in
  Alcotest.(check (pair int int)) "steps executed" na nb;
  if oa <> ob then Alcotest.fail "fast and slow stepping diverged";
  mb

let reg_a0 m = Hart.get_reg (Machine.hart m 0) 10
let mcause m = (Machine.hart m 0).Hart.csr.Csr.mcause
let mepc m = (Machine.hart m 0).Hart.csr.Csr.mepc

(* ---------- differential oracle over random programs ---------- *)

(* Registers the generator may clobber; s0 (scratch base) and s1 (code
   base) stay stable so loads/stores usually land somewhere legal. *)
let pool = [| 10; 11; 12; 13; 14; 15; 6; 7 |]

let gen_instr : Decode.t QCheck.Gen.t =
  let open QCheck.Gen in
  let open Decode in
  let reg = map (fun i -> pool.(i)) (int_bound (Array.length pool - 1)) in
  let alu_imm = oneofl [ Add; Xor; Or; And; Slt; Sltu ] in
  let alu_reg = oneofl [ Add; Sub; Xor; Or; And; Slt; Sltu ] in
  let shift = oneofl [ Sll; Srl; Sra ] in
  frequency
    [
      (* plain ALU / mul *)
      ( 8,
        map3
          (fun op rd (rs, imm) -> Op_imm (op, rd, rs, Int64.of_int imm))
          alu_imm reg
          (pair reg (int_range (-1024) 1023)) );
      (4, map3 (fun op rd rs -> Op (op, rd, rs, rs)) alu_reg reg reg);
      ( 3,
        map3 (fun op rd amt -> Op_imm (op, rd, rd, Int64.of_int amt))
          shift reg (int_bound 63) );
      ( 3,
        map3
          (fun op rd rs -> Muldiv (op, rd, rd, rs))
          (oneofl [ Mul; Mulh; Div; Divu; Rem; Remu ])
          reg reg );
      (* loads/stores against the scratch page, naturally aligned *)
      ( 5,
        map3
          (fun rd k u ->
            if u then
              Load
                {
                  rd;
                  rs1 = Asm.s0;
                  imm = Int64.of_int (4 * k);
                  width = W;
                  unsigned = true;
                }
            else
              Load
                {
                  rd;
                  rs1 = Asm.s0;
                  imm = Int64.of_int (8 * k);
                  width = D;
                  unsigned = false;
                })
          reg (int_bound 63) bool );
      ( 5,
        map2
          (fun rs2 k ->
            Store
              { rs1 = Asm.s0; rs2; imm = Int64.of_int (8 * k); width = D })
          reg (int_bound 63) );
      ( 2,
        map2
          (fun rs2 k ->
            Store
              { rs1 = Asm.s0; rs2; imm = Int64.of_int (4 * k); width = W })
          reg (int_bound 127) );
      (* AMOs on the (aligned) scratch base *)
      ( 3,
        map3
          (fun op rd rs2 -> Amo { op; rd; rs1 = Asm.s0; rs2; width = D })
          (oneofl [ Amoswap; Amoadd; Amoxor; Amoand; Amoor; Lr; Sc ])
          reg reg );
      (* short branches and jumps, forwards and backwards *)
      ( 4,
        map3
          (fun b rs k ->
            Branch (b, rs, rs, Int64.of_int (4 * if k = 0 then 2 else k)))
          (oneofl [ Beq; Bne; Blt; Bge; Bltu; Bgeu ])
          reg (int_range (-8) 8) );
      (1, map (fun k -> Jal (0, Int64.of_int (4 * (k + 1)))) (int_bound 3));
      (* CSR traffic *)
      (1, map2 (fun rd rs -> Csr (Csrrw, rd, rs, 0x340)) reg reg);
      (* fences, incl. fence.i and an all-flush sfence *)
      (1, return Fence);
      (1, return Fence_i);
      (1, return (Sfence_vma (0, 0)));
      (* self-modifying / code-page stores: s1 points at the program *)
      ( 2,
        map2
          (fun rs2 k ->
            Store
              { rs1 = Asm.s1; rs2; imm = Int64.of_int (4 * k); width = W })
          reg (int_bound 255) );
    ]

let gen_program =
  QCheck.Gen.(
    map
      (fun body ->
        let prologue =
          List.concat [ Asm.li Asm.s0 scratch; Asm.li Asm.s1 Bus.dram_base ]
        in
        let n = List.length prologue + List.length body in
        prologue @ body @ [ Asm.j (Int64.of_int (-4 * n)) ])
      (list_size (return 30) gen_instr))

let oracle_props =
  [
    QCheck.Test.make ~name:"cached stepping == uncached stepping" ~count:40
      (QCheck.make gen_program)
      (fun prog ->
        let go fast =
          let m = fresh ~fast prog in
          let n = Machine.run_hart m 0 ~max_steps:1500 in
          (n, obs m)
        in
        go false = go true);
  ]

(* ---------- planted stale-decode-page cases ---------- *)

let addi rd imm = Decode.Op_imm (Decode.Add, rd, rd, imm)
let tight_loop = [ addi 10 1L; Asm.j (-4L) ]

let stale_tests =
  [
    Alcotest.test_case "host DMA store re-decodes a cached page" `Quick
      (fun () ->
        (* 10 steps cache and execute the addi; the host then rewrites
           it behind the guest's back (virtio-style DMA). *)
        let m =
          two_phase ~steps1:10
            ~mutate:(fun m ->
              Bus.write m.Machine.bus Bus.dram_base 4
                (Asm.encode (addi 10 16L)))
            ~steps2:2 tight_loop
        in
        Alcotest.(check int64) "new instruction took effect" 21L (reg_a0 m));
    Alcotest.test_case "guest store to its own code page" `Quick (fun () ->
        (* iteration 1 runs the original addi (caching its slot) and
           then overwrites it; iteration 2 must see the new opcode.
           [target]'s address depends on the prologue length, which
           depends on the li of [target] — iterate to the fixpoint. *)
        let prologue_for target =
          List.concat
            [ Asm.li Asm.t1 (Asm.encode (addi 10 64L)); Asm.li Asm.t2 target ]
        in
        let rec fix target =
          let p = prologue_for target in
          let t' =
            Int64.add Bus.dram_base (Int64.of_int (4 * List.length p))
          in
          if Int64.equal t' target then p else fix t'
        in
        let prologue = fix Bus.dram_base in
        let prog =
          prologue
          @ [
              addi 10 1L;
              Decode.Store
                { rs1 = Asm.t2; rs2 = Asm.t1; imm = 0L; width = Decode.W };
              Asm.j (-8L);
            ]
        in
        let steps = List.length prologue + 6 in
        let m = two_phase ~steps2:steps prog in
        Alcotest.(check int64) "second pass ran the stored opcode" 65L
          (reg_a0 m));
    Alcotest.test_case "guest store then fence.i" `Quick (fun () ->
        let prologue_for target =
          List.concat
            [ Asm.li Asm.t1 (Asm.encode (addi 10 64L)); Asm.li Asm.t2 target ]
        in
        let rec fix target =
          let p = prologue_for target in
          let t' =
            Int64.add Bus.dram_base (Int64.of_int (4 * List.length p))
          in
          if Int64.equal t' target then p else fix t'
        in
        let prologue = fix Bus.dram_base in
        let prog =
          prologue
          @ [
              addi 10 1L;
              Decode.Store
                { rs1 = Asm.t2; rs2 = Asm.t1; imm = 0L; width = Decode.W };
              Decode.Fence_i;
              Asm.j (-12L);
            ]
        in
        let steps = List.length prologue + 8 in
        let m = two_phase ~steps2:steps prog in
        Alcotest.(check int64) "post-fence.i pass ran the stored opcode" 65L
          (reg_a0 m));
    Alcotest.test_case "page scrub turns cached decodes into traps" `Quick
      (fun () ->
        (* A monitor-style zero_range scrub of the code page: the very
           next fetch must decode zeros (Illegal) — not the cached
           instruction. *)
        let m =
          two_phase ~steps1:10
            ~mutate:(fun m ->
              Physmem.zero_range (Bus.dram m.Machine.bus) 0L 4096L)
            ~steps2:1 tight_loop
        in
        Alcotest.(check int64) "illegal-instruction trap"
          (Int64.of_int (Cause.exception_code Cause.Illegal_instruction))
          (mcause m);
        Alcotest.(check int64) "trap pc" Bus.dram_base (mepc m));
  ]

(* A paged machine: HS mode, one Sv39 megapage identity-mapping the
   first 2 MiB of DRAM, PMP open over all of DRAM. Returns the L1 PTE's
   DRAM offset so tests can remap. *)
let setup_paged m =
  let hart = Machine.hart m 0 in
  let dram = Bus.dram m.Machine.bus in
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
    ~size:dram_size ~r:true ~w:true ~x:true;
  hart.Hart.csr.Csr.satp <- Sv39.satp_of ~asid:1 ~root;
  hart.Hart.mode <- Priv.HS;
  Int64.add root_off 0x1000L

let paged_tests =
  [
    Alcotest.test_case "remap + TLB flush invalidates translation memos"
      `Quick (fun () ->
        (* Drop execute permission on the code megapage and flush the
           TLB (what an sfence after a monitor unmap does): the next
           fetch must page-fault even though both the fetch memo and
           the decode cache held the old mapping. *)
        let m =
          two_phase ~steps1:10
            ~mutate:(fun m ->
              let dram = Bus.dram m.Machine.bus in
              let l1_off = 0x201000L in
              Physmem.write_u64 dram l1_off
                (Pte.make
                   ~ppn:(Int64.shift_right_logical Bus.dram_base 12)
                   ~r:true ~w:true ~x:false ~valid:true ());
              Tlb.flush_all (Machine.hart m 0).Hart.tlb)
            ~steps2:1
            ~setup_first:(fun m -> ignore (setup_paged m))
            tight_loop
        in
        Alcotest.(check int64) "instruction page fault"
          (Int64.of_int (Cause.exception_code Cause.Instr_page_fault))
          (mcause m));
    Alcotest.test_case "paged A/B benchmark arms stay identical" `Quick
      (fun () ->
        let r =
          Platform.Exp_sim.ab_compare Platform.Exp_sim.Rv8_mix_paged
            ~steps:20000
        in
        Alcotest.(check bool) "identical" true r.Platform.Exp_sim.identical);
  ]

(* ---------- satellite regressions ---------- *)

let expect_trap name cause f =
  match f () with
  | _ -> Alcotest.failf "%s: expected a trap" name
  | exception Hart.Trap_exn (c, _, _) ->
      Alcotest.(check int) name
        (Cause.exception_code cause)
        (Cause.exception_code c)

let satellite_tests =
  [
    Alcotest.test_case "PMP is checked over the whole access, not byte 0"
      `Quick (fun () ->
        let m = Machine.create ~dram_size () in
        let hart = Machine.hart m 0 in
        hart.Hart.mode <- Priv.HS;
        (* only the first 4 KiB of DRAM are open *)
        Pmp.set_napot_region hart.Hart.csr.Csr.pmp 0 ~base:Bus.dram_base
          ~size:4096L ~r:true ~w:true ~x:true;
        Alcotest.(check int64)
          "aligned in-range read" 0L
          (Hart.read_mem hart (Int64.add Bus.dram_base 4088L) 8);
        expect_trap "read straddling the PMP boundary"
          Cause.Load_access_fault (fun () ->
            Hart.translate ~len:8 hart Sv39.Load
              (Int64.add Bus.dram_base 4092L));
        expect_trap "read past the PMP region" Cause.Load_access_fault
          (fun () -> Hart.read_mem hart (Int64.add Bus.dram_base 4096L) 8);
        expect_trap "store straddling the PMP boundary"
          Cause.Store_access_fault (fun () ->
            Hart.translate ~len:8 hart Sv39.Store
              (Int64.add Bus.dram_base 4092L)));
    Alcotest.test_case "TLB refill charges exactly one walk" `Quick
      (fun () ->
        (* The permission probes that populate a TLB entry's r/w/x bits
           must not charge page_walk cycles: one access = one walk. *)
        let m = Machine.create ~dram_size () in
        ignore (setup_paged m);
        let hart = Machine.hart m 0 in
        let walked () =
          Metrics.Ledger.category_total m.Machine.ledger "page_walk"
        in
        Alcotest.(check int) "pristine" 0 (walked ());
        ignore (Hart.read_mem hart scratch 8);
        (* 2-level walk (root + megapage leaf), charged once *)
        Alcotest.(check int) "one two-step walk"
          (2 * m.Machine.cost.Cost.page_walk_step)
          (walked ());
        ignore (Hart.read_mem hart scratch 8);
        Alcotest.(check int) "TLB hit charges no walk"
          (2 * m.Machine.cost.Cost.page_walk_step)
          (walked ()));
    Alcotest.test_case "AMO faults are Store/AMO-class on the read half"
      `Quick (fun () ->
        let m = Machine.create ~dram_size () in
        let l1_off = setup_paged m in
        ignore l1_off;
        let hart = Machine.hart m 0 in
        expect_trap "misaligned AMO" Cause.Store_addr_misaligned (fun () ->
            Hart.amo_read_mem hart (Int64.add scratch 1L) 8);
        expect_trap "AMO to an unmapped page" Cause.Store_page_fault
          (fun () ->
            Hart.amo_read_mem hart (Int64.add Bus.dram_base 0x200000L) 8);
        (* read-only page: the read half must still demand W *)
        let dram = Bus.dram m.Machine.bus in
        Physmem.write_u64 dram 0x201000L
          (Pte.make
             ~ppn:(Int64.shift_right_logical Bus.dram_base 12)
             ~r:true ~w:false ~x:true ~valid:true ());
        Tlb.flush_all hart.Hart.tlb;
        expect_trap "AMO to a read-only page" Cause.Store_page_fault
          (fun () -> Hart.amo_read_mem hart scratch 8);
        (* PMP-denied: M mode is unrestricted, so drive it from HS with
           a PMP hole past the first page *)
        Pmp.set_napot_region hart.Hart.csr.Csr.pmp 0 ~base:Bus.dram_base
          ~size:4096L ~r:true ~w:true ~x:true;
        hart.Hart.csr.Csr.satp <- 0L;
        expect_trap "PMP-denied AMO" Cause.Store_access_fault (fun () ->
            Hart.amo_read_mem hart (Int64.add Bus.dram_base 8192L) 8));
    Alcotest.test_case "executed AMO traps with a Store/AMO cause" `Quick
      (fun () ->
        let prog =
          List.concat
            [
              Asm.li Asm.a1 (Int64.add scratch 1L);
              [
                Decode.Amo
                  {
                    op = Decode.Amoadd;
                    rd = Asm.a0;
                    rs1 = Asm.a1;
                    rs2 = Asm.a2;
                    width = Decode.D;
                  };
              ];
            ]
        in
        let m = two_phase ~steps2:(List.length prog) prog in
        Alcotest.(check int64) "mcause is Store/AMO misaligned"
          (Int64.of_int (Cause.exception_code Cause.Store_addr_misaligned))
          (mcause m));
    Alcotest.test_case "sfence.vma operands scope the flush" `Quick
      (fun () ->
        let e pa =
          {
            Tlb.pa_page = pa;
            readable = true;
            writable = true;
            executable = true;
          }
        in
        let keys tlb =
          Tlb.fold tlb
            (fun ~asid ~vmid ~vpage _ acc -> (asid, vmid, vpage) :: acc)
            []
          |> List.sort compare
        in
        let run_fence ~rs1v ~rs2v fence =
          let m = fresh ~fast:true [ fence ] in
          let hart = Machine.hart m 0 in
          let tlb = hart.Hart.tlb in
          Tlb.insert tlb ~asid:1 ~vmid:0 0x1000L (e 0x80001000L);
          Tlb.insert tlb ~asid:2 ~vmid:0 0x1000L (e 0x80002000L);
          Tlb.insert tlb ~asid:1 ~vmid:0 0x2000L (e 0x80003000L);
          Hart.set_reg hart Asm.t0 rs1v;
          Hart.set_reg hart Asm.t1 rs2v;
          ignore (Machine.run_hart m 0 ~max_steps:1);
          keys tlb
        in
        (* both operands: only (asid 1, page 1) dies *)
        Alcotest.(check (list (triple int int int64)))
          "sfence.vma va,asid is page+asid scoped"
          [ (1, 0, 2L); (2, 0, 1L) ]
          (run_fence ~rs1v:0x1000L ~rs2v:1L
             (Decode.Sfence_vma (Asm.t0, Asm.t1)));
        (* asid only: asid 1 dies entirely, asid 2 survives *)
        Alcotest.(check (list (triple int int int64)))
          "sfence.vma x0,asid is asid scoped"
          [ (2, 0, 1L) ]
          (run_fence ~rs1v:0L ~rs2v:1L (Decode.Sfence_vma (0, Asm.t1)));
        (* va only: both asids lose page 1, asid 1 keeps page 2 *)
        Alcotest.(check (list (triple int int int64)))
          "sfence.vma va,x0 is page scoped"
          [ (1, 0, 2L) ]
          (run_fence ~rs1v:0x1000L ~rs2v:0L
             (Decode.Sfence_vma (Asm.t0, 0)));
        (* no operands: everything dies *)
        Alcotest.(check (list (triple int int int64)))
          "sfence.vma x0,x0 flushes all" []
          (run_fence ~rs1v:0L ~rs2v:0L (Decode.Sfence_vma (0, 0))));
  ]

(* ---------- the decode cache across world switches ---------- *)

(* World switches keep decoded pages; only write generations (and the
   SM's drops where a VM dies) retire them. These run real CVMs through
   the monitor's paper-faithful switch path. *)

let testbed ~fast =
  let tb = Platform.Testbed.create () in
  Array.iter
    (fun h -> Hart.set_fast_path h fast)
    tb.Platform.Testbed.machine.Machine.harts;
  tb

let putchar_a0 = Asm.li Asm.a7 Zion.Ecall.sbi_legacy_putchar @ [ Decode.Ecall ]

let mmio_load =
  Decode.Load
    { rd = Asm.t2; rs1 = Asm.t0; imm = 0x10L; width = Decode.W;
      unsigned = false }

(* t0 = the virtio MMIO window, then [body] looped [rounds] times,
   then shutdown. [body] must decrement t1. *)
let loop_header rounds =
  Asm.li Asm.t0 Zion.Layout.virtio_mmio_gpa @ Asm.li Asm.t1 (Int64.of_int rounds)

let counted_loop ~rounds body =
  loop_header rounds @ body
  @ [
      Decode.Branch
        (Decode.Bne, Asm.t1, Asm.zero, Int64.of_int (-4 * List.length body));
    ]
  @ Guest.Gprog.shutdown

(* Each round: an MMIO load (an exit to the host and an entry back), a
   running sum and one console byte. *)
let mmio_loop rounds =
  counted_loop ~rounds
    ([
       mmio_load;
       Decode.Op (Decode.Add, Asm.s1, Asm.s1, Asm.t2);
       Decode.Op_imm (Decode.Add, Asm.t1, Asm.t1, -1L);
     ]
    @ Guest.Gprog.putchar 'x')

(* One timer slice on hart 0. *)
let slice tb h =
  Platform.Testbed.set_quantum tb ~hart:0 20_000;
  Hypervisor.Kvm.run_cvm tb.Platform.Testbed.kvm h ~hart:0
    ~max_steps:1_000_000

(* Slice the guest until it shuts down; the number of timer exits. *)
let run_sliced tb h =
  Platform.Testbed.enable_timer tb ~hart:0;
  let rec go timers =
    match slice tb h with
    | Hypervisor.Kvm.C_timer when timers < 10_000 -> go (timers + 1)
    | Hypervisor.Kvm.C_shutdown -> timers
    | _ -> Alcotest.fail "guest neither shut down nor took a timer exit"
  in
  go 0

let switches tb = List.length (Zion.Monitor.exit_cycles tb.Platform.Testbed.monitor)
let console tb = Zion.Monitor.console_output tb.Platform.Testbed.monitor

(* Run [prog] as a CVM under both interpreters; the observable state,
   console included, must match. Returns (timer exits, world switches,
   console) of the fast arm. *)
let cvm_differential prog =
  let go fast =
    let tb = testbed ~fast in
    let timers = run_sliced tb (Platform.Testbed.cvm tb prog) in
    ((timers, switches tb, console tb), obs tb.Platform.Testbed.machine)
  in
  let slow, slow_obs = go false in
  let fast, fast_obs = go true in
  if slow_obs <> fast_obs then
    Alcotest.fail "fast and slow stepping diverged across world switches";
  Alcotest.(check (triple int int string)) "timers, switches, console" slow fast;
  fast

(* The secure-pool page whose leading bytes are [image]. *)
let pool_page_holding tb image =
  let mon = tb.Platform.Testbed.monitor in
  let bus = tb.Platform.Testbed.machine.Machine.bus in
  let len = String.length image in
  let found = ref None in
  List.iter
    (fun (base, size) ->
      for i = 0 to Int64.to_int (Int64.div size 4096L) - 1 do
        let pa = Int64.add base (Int64.of_int (i * 4096)) in
        if !found = None && Bus.read_bytes bus pa len = image then
          found := Some pa
      done)
    (Zion.Secmem.regions (Zion.Monitor.secmem mon));
  match !found with
  | Some pa -> pa
  | None -> Alcotest.fail "guest image not found in the pool"

let print_char_prog c =
  Asm.li Asm.a0 (Int64.of_int (Char.code c)) @ putchar_a0 @ Guest.Gprog.shutdown

let switch_tests =
  [
    Alcotest.test_case "exitful guest agrees cached and uncached over 50+ switches"
      `Quick (fun () ->
        let timers, switched, out = cvm_differential (mmio_loop 60) in
        Alcotest.(check bool) "timer exits taken" true (timers > 0);
        Alcotest.(check bool) "at least 50 world switches" true (switched >= 50);
        Alcotest.(check string) "console" (String.make 60 'x') out);
    Alcotest.test_case "code rewritten before an MMIO exit runs new bytes"
      `Quick (fun () ->
        (* Round 1 prints 'A', patches that print to 'B' and exits on an
           MMIO load; round 2, after the entry, must print 'B'. *)
        let print c =
          Decode.Op_imm (Decode.Add, Asm.a0, Asm.zero, Int64.of_int (Char.code c))
        in
        let patched =
          Int64.add Platform.Testbed.guest_entry
            (Int64.of_int (4 * List.length (loop_header 2)))
        in
        let body =
          [ print 'A' ] @ putchar_a0
          @ Asm.li Asm.a1 patched
          @ Asm.li Asm.a2 (Asm.encode (print 'B'))
          @ [
              Decode.Store
                { rs1 = Asm.a1; rs2 = Asm.a2; imm = 0L; width = Decode.W };
              mmio_load;
              Decode.Op_imm (Decode.Add, Asm.t1, Asm.t1, -1L);
            ]
        in
        let _, switched, out =
          cvm_differential (counted_loop ~rounds:2 body)
        in
        Alcotest.(check bool) "switched" true (switched >= 2);
        Alcotest.(check string) "second round ran the patched word" "AB" out);
    Alcotest.test_case "a destroyed CVM's code page reused by a new CVM"
      `Quick (fun () ->
        let tb = testbed ~fast:true in
        let mon = tb.Platform.Testbed.monitor in
        let kvm = tb.Platform.Testbed.kvm in
        let run h =
          match Hypervisor.Kvm.run_cvm kvm h ~hart:0 ~max_steps:100_000 with
          | Hypervisor.Kvm.C_shutdown -> ()
          | _ -> Alcotest.fail "guest did not shut down"
        in
        let a = Platform.Testbed.cvm tb (print_char_prog 'A') in
        let a_page = pool_page_holding tb (Asm.program (print_char_prog 'A')) in
        run a;
        (match Zion.Monitor.destroy_cvm mon ~cvm:(Hypervisor.Kvm.cvm_id a) with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        let b = Platform.Testbed.cvm tb (print_char_prog 'B') in
        Alcotest.(check int64) "same physical code page" a_page
          (pool_page_holding tb (Asm.program (print_char_prog 'B')));
        run b;
        Alcotest.(check string) "each CVM ran its own code" "AB" (console tb));
    Alcotest.test_case "warm exits and entries decode nothing" `Quick
      (fun () ->
        let tb = testbed ~fast:true in
        let h = Platform.Testbed.cvm tb (mmio_loop 1_000_000) in
        Platform.Testbed.enable_timer tb ~hart:0;
        let hart = Machine.hart tb.Platform.Testbed.machine 0 in
        let timer_slice () =
          match slice tb h with
          | Hypervisor.Kvm.C_timer -> ()
          | _ -> Alcotest.fail "expected a timer exit"
        in
        timer_slice ();
        timer_slice ();
        let fills = (Hart.fast_path_stats hart).Hart.decode_fills in
        let before = switches tb in
        timer_slice ();
        Alcotest.(check bool) "the round switched worlds" true
          (switches tb - before >= 2);
        Alcotest.(check int) "no decode fills" fills
          (Hart.fast_path_stats hart).Hart.decode_fills);
  ]

let suite =
  [
    ("sim_fastpath.oracle", List.map QCheck_alcotest.to_alcotest oracle_props);
    ("sim_fastpath.stale_decode", stale_tests);
    ("sim_fastpath.paged", paged_tests);
    ("sim_fastpath.satellites", satellite_tests);
    ("sim_fastpath.world_switch", switch_tests);
  ]
