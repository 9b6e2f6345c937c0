open Riscv

let bit c = Int64.shift_left 1L (Cause.exception_code c)
let ibit c = Int64.shift_left 1L (Cause.interrupt_code c)

(* Normal mode: stock Linux/KVM-style delegation. Supervisor software
   handles user ecalls, page faults, and — thanks to the hypervisor
   extension — guest-page faults and VS ecalls. *)
let normal_medeleg =
  List.fold_left Int64.logor 0L
    (List.map bit
       [
         Cause.Instr_addr_misaligned; Cause.Breakpoint;
         Cause.Load_addr_misaligned; Cause.Store_addr_misaligned;
         Cause.Ecall_from_u; Cause.Ecall_from_vs; Cause.Instr_page_fault;
         Cause.Load_page_fault; Cause.Store_page_fault;
         Cause.Instr_guest_page_fault; Cause.Load_guest_page_fault;
         Cause.Store_guest_page_fault; Cause.Virtual_instruction;
       ])

let normal_mideleg =
  List.fold_left Int64.logor 0L
    (List.map ibit
       [
         Cause.Supervisor_software; Cause.Supervisor_timer;
         Cause.Supervisor_external; Cause.Virtual_supervisor_software;
         Cause.Virtual_supervisor_timer; Cause.Virtual_supervisor_external;
         Cause.Supervisor_guest_external;
       ])

(* Normal VMs: KVM chooses what to push into the guest. *)
let normal_hedeleg =
  List.fold_left Int64.logor 0L
    (List.map bit
       [
         Cause.Instr_addr_misaligned; Cause.Breakpoint; Cause.Ecall_from_u;
         Cause.Instr_page_fault; Cause.Load_page_fault;
         Cause.Store_page_fault;
       ])

let normal_hideleg =
  List.fold_left Int64.logor 0L
    (List.map ibit
       [
         Cause.Virtual_supervisor_software; Cause.Virtual_supervisor_timer;
         Cause.Virtual_supervisor_external;
       ])

(* CVM mode: the guest keeps what it can handle alone; everything else
   (guest-page faults, VS ecalls, all interrupts) goes to the SM. Both
   levels must delegate for a trap to reach VS. *)
let cvm_guest_handled =
  List.fold_left Int64.logor 0L
    (List.map bit
       [
         Cause.Instr_addr_misaligned; Cause.Breakpoint;
         Cause.Load_addr_misaligned; Cause.Store_addr_misaligned;
         Cause.Ecall_from_u; Cause.Instr_page_fault; Cause.Load_page_fault;
         Cause.Store_page_fault;
       ])

let cvm_medeleg = cvm_guest_handled
let cvm_hedeleg = cvm_guest_handled

(* VS-level interrupt bits must be delegated at both levels for direct
   in-guest delivery; the SM injects them via hvip. *)
let cvm_mideleg =
  List.fold_left Int64.logor 0L
    (List.map ibit
       [
         Cause.Virtual_supervisor_software; Cause.Virtual_supervisor_timer;
         Cause.Virtual_supervisor_external;
       ])

let cvm_hideleg = cvm_mideleg

let apply_normal (hart : Hart.t) =
  let csr = hart.Hart.csr in
  csr.Csr.medeleg <- normal_medeleg;
  csr.Csr.mideleg <- normal_mideleg;
  csr.Csr.hedeleg <- normal_hedeleg;
  csr.Csr.hideleg <- normal_hideleg

let apply_cvm (hart : Hart.t) =
  let csr = hart.Hart.csr in
  csr.Csr.medeleg <- cvm_medeleg;
  csr.Csr.mideleg <- cvm_mideleg;
  csr.Csr.hedeleg <- cvm_hedeleg;
  csr.Csr.hideleg <- cvm_hideleg
