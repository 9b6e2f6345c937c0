(** Trap causes: synchronous exceptions and interrupts, with the
    privileged-spec encodings (including the hypervisor-extension causes
    ZION's trap-delegation policy routes on). *)

type exception_t =
  | Instr_addr_misaligned
  | Instr_access_fault
  | Illegal_instruction
  | Breakpoint
  | Load_addr_misaligned
  | Load_access_fault
  | Store_addr_misaligned
  | Store_access_fault
  | Ecall_from_u (* also VU when V=1 *)
  | Ecall_from_hs
  | Ecall_from_vs
  | Ecall_from_m
  | Instr_page_fault
  | Load_page_fault
  | Store_page_fault
  | Instr_guest_page_fault
  | Load_guest_page_fault
  | Virtual_instruction
  | Store_guest_page_fault

type interrupt_t =
  | Supervisor_software
  | Virtual_supervisor_software
  | Machine_software
  | Supervisor_timer
  | Virtual_supervisor_timer
  | Machine_timer
  | Supervisor_external
  | Virtual_supervisor_external
  | Machine_external
  | Supervisor_guest_external

type t = Exception of exception_t | Interrupt of interrupt_t

val exception_code : exception_t -> int
(** Spec encoding, e.g. 20 for [Instr_guest_page_fault]. *)

val interrupt_code : interrupt_t -> int
(** Spec encoding, e.g. 5 for [Supervisor_timer]. *)

val code : t -> int

val to_xcause : t -> int64
(** Value as written to [mcause]/[scause]/[vscause]: interrupt bit 63 set
    for interrupts. *)

val exception_of_code : int -> exception_t option

val to_string : t -> string
val pp : Format.formatter -> t -> unit
