type io_mode = Exitful | Exitless
type kind = Normal | Confidential of io_mode

type t = {
  kind : kind;
  monitor : Zion.Monitor.t;
  cost : Riscv.Cost.t;
  locality : Workloads.Opcount.locality;
  mutable work : float;  (** computation cycles *)
  mutable fault : float;
  mutable io : float;
  mutable refill : float;  (** post-switch TLB/cache refill (CVM) *)
}

let quantum = float_of_int Testbed.quantum_cycles
let exitless_batch = 8

let create ~kind ~monitor ~locality () =
  {
    kind;
    monitor;
    cost = (Zion.Monitor.machine monitor).Riscv.Machine.cost;
    locality;
    work = 0.;
    fault = 0.;
    io = 0.;
    refill = 0.;
  }

let add_ops t ops =
  t.work <- t.work +. float_of_int (Workloads.Opcount.cycles t.cost ops)

let add_cycles t c = t.work <- t.work +. float_of_int c

(* KVM's normal-VM fault path costs a fixed 39,607 cycles; ZION's
   hierarchical allocator serves from the vCPU page cache except when a
   fresh 64-page block must be grabbed. *)
let add_faults t ~pages =
  if pages > 0 then begin
    let c = t.cost in
    match t.kind with
    | Normal ->
        t.fault <-
          t.fault
          +. (float_of_int pages *. float_of_int (Riscv.Cost.kvm_fault c))
    | Confidential _ ->
        let block_grabs = pages / 64 in
        t.fault <-
          t.fault
          +. (float_of_int pages *. float_of_int (Riscv.Cost.sm_fault_base c))
          +. (float_of_int block_grabs *. float_of_int c.Riscv.Cost.block_grab)
  end

let switch_refill t = Workloads.Opcount.refill_cycles t.cost t.locality

(* One MMIO access round trip. *)
let mmio_round_trip t =
  match t.kind with
  | Normal -> t.cost.Riscv.Cost.hs_mmio_exit
  | Confidential _ ->
      let r = switch_refill t in
      t.refill <- t.refill +. float_of_int r;
      Zion.Monitor.path_cost t.monitor Zion.Monitor.Exit_with_mmio
      + Zion.Monitor.path_cost t.monitor Zion.Monitor.Entry_with_mmio
      + r

let blk_service_cycles ~bytes = 20_000 + (2 * bytes)

(* Exitless ring accounting for one device access: the guest publishes
   with plain stores (ring_submit) and later validates the completion
   (ring_consume_check); the host's polling beat and single used-index
   publish amortize over the batch. No world switch, no refill. *)
let ring_access_cycles t =
  let c = t.cost in
  c.Riscv.Cost.ring_submit + c.Riscv.Cost.ring_consume_check
  + c.Riscv.Cost.ring_host_service
  + ((c.Riscv.Cost.ring_host_poll + c.Riscv.Cost.ring_notify)
     / exitless_batch)

let add_blk_request t ~bytes =
  let copy =
    match t.kind with
    | Normal -> 0
    | Confidential _ -> Riscv.Cost.word_copy t.cost bytes
  in
  let io_path =
    match t.kind with
    | Confidential Exitless -> ring_access_cycles t
    | Normal | Confidential Exitful ->
        let accesses = 2 (* kick write + status read *) in
        accesses * mmio_round_trip t
  in
  t.io <- t.io +. float_of_int (io_path + copy + blk_service_cycles ~bytes)

let add_net_access t ~copied_bytes =
  let copy =
    match t.kind with
    | Normal -> 0
    | Confidential _ -> Riscv.Cost.word_copy t.cost copied_bytes
  in
  let io_path =
    match t.kind with
    | Confidential Exitless -> ring_access_cycles t
    | Normal | Confidential Exitful -> mmio_round_trip t
  in
  t.io <- t.io +. float_of_int (io_path + copy)

let tick_cost t =
  match t.kind with
  | Normal -> float_of_int t.cost.Riscv.Cost.hs_timer_tick
  | Confidential _ ->
      float_of_int
        (Zion.Monitor.path_cost t.monitor Zion.Monitor.Exit_plain
        + Zion.Monitor.path_cost t.monitor Zion.Monitor.Entry_plain
        + switch_refill t)

let total_cycles t =
  let base = t.work +. t.fault +. t.io in
  (* Every quantum of elapsed time costs one timer tick; the tick itself
     consumes time, so the effective rate dilates. *)
  let tick = tick_cost t in
  base /. (1. -. (tick /. quantum))

let breakdown t =
  let tick = tick_cost t in
  let total = total_cycles t in
  let ticks = total /. quantum in
  [
    ("work", t.work);
    ("faults", t.fault);
    ("io", t.io);
    ("ticks", ticks *. tick);
    ("refill(io)", t.refill);
  ]
