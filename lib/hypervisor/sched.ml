open Riscv

type entry = { handle : Kvm.cvm_handle; mutable done_ : Kvm.cvm_outcome option }

type t = {
  kvm : Kvm.t;
  quantum : int;
  mutable queue : entry list;
  mutable slices : int;
}

let create kvm ~quantum = { kvm; quantum; queue = []; slices = 0 }
let add t handle = t.queue <- t.queue @ [ { handle; done_ = None } ]

let run_on_harts t ~harts ~max_rounds =
  if harts = [] then invalid_arg "Sched.run_on_harts: no harts";
  let machine = Kvm.machine t.kvm in
  let clint = Bus.clint machine.Machine.bus in
  List.iter
    (fun hart ->
      let hart_obj = machine.Machine.harts.(hart) in
      hart_obj.Hart.csr.Csr.mie <-
        Int64.logor hart_obj.Hart.csr.Csr.mie (Int64.shift_left 1L 7))
    harts;
  let nharts = List.length harts in
  let next_hart = ref 0 in
  let round = ref 0 in
  let unfinished () = List.exists (fun e -> e.done_ = None) t.queue in
  while !round < max_rounds && unfinished () do
    incr round;
    List.iter
      (fun e ->
        if e.done_ = None then begin
          t.slices <- t.slices + 1;
          let hart = List.nth harts (!next_hart mod nharts) in
          incr next_hart;
          Clint.set_mtimecmp clint hart
            (Int64.of_int
               (Metrics.Ledger.now machine.Machine.ledger + t.quantum));
          match Kvm.run_cvm t.kvm e.handle ~hart ~max_steps:10_000_000 with
          | Kvm.C_timer -> () (* gets another slice next round *)
          | outcome -> e.done_ <- Some outcome
        end)
      t.queue
  done;
  List.map
    (fun e ->
      (Kvm.cvm_id e.handle, Option.value ~default:Kvm.C_limit e.done_))
    t.queue

let run t ~hart ~max_rounds = run_on_harts t ~harts:[ hart ] ~max_rounds

let slices_run t = t.slices
