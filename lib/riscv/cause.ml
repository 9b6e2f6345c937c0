type exception_t =
  | Instr_addr_misaligned
  | Instr_access_fault
  | Illegal_instruction
  | Breakpoint
  | Load_addr_misaligned
  | Load_access_fault
  | Store_addr_misaligned
  | Store_access_fault
  | Ecall_from_u
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

let exception_code = function
  | Instr_addr_misaligned -> 0
  | Instr_access_fault -> 1
  | Illegal_instruction -> 2
  | Breakpoint -> 3
  | Load_addr_misaligned -> 4
  | Load_access_fault -> 5
  | Store_addr_misaligned -> 6
  | Store_access_fault -> 7
  | Ecall_from_u -> 8
  | Ecall_from_hs -> 9
  | Ecall_from_vs -> 10
  | Ecall_from_m -> 11
  | Instr_page_fault -> 12
  | Load_page_fault -> 13
  | Store_page_fault -> 15
  | Instr_guest_page_fault -> 20
  | Load_guest_page_fault -> 21
  | Virtual_instruction -> 22
  | Store_guest_page_fault -> 23

let interrupt_code = function
  | Supervisor_software -> 1
  | Virtual_supervisor_software -> 2
  | Machine_software -> 3
  | Supervisor_timer -> 5
  | Virtual_supervisor_timer -> 6
  | Machine_timer -> 7
  | Supervisor_external -> 9
  | Virtual_supervisor_external -> 10
  | Machine_external -> 11
  | Supervisor_guest_external -> 12

let code = function
  | Exception e -> exception_code e
  | Interrupt i -> interrupt_code i

let to_xcause = function
  | Exception e -> Int64.of_int (exception_code e)
  | Interrupt i ->
      Int64.logor Int64.min_int (Int64.of_int (interrupt_code i))

let exception_of_code = function
  | 0 -> Some Instr_addr_misaligned
  | 1 -> Some Instr_access_fault
  | 2 -> Some Illegal_instruction
  | 3 -> Some Breakpoint
  | 4 -> Some Load_addr_misaligned
  | 5 -> Some Load_access_fault
  | 6 -> Some Store_addr_misaligned
  | 7 -> Some Store_access_fault
  | 8 -> Some Ecall_from_u
  | 9 -> Some Ecall_from_hs
  | 10 -> Some Ecall_from_vs
  | 11 -> Some Ecall_from_m
  | 12 -> Some Instr_page_fault
  | 13 -> Some Load_page_fault
  | 15 -> Some Store_page_fault
  | 20 -> Some Instr_guest_page_fault
  | 21 -> Some Load_guest_page_fault
  | 22 -> Some Virtual_instruction
  | 23 -> Some Store_guest_page_fault
  | _ -> None

let exception_to_string = function
  | Instr_addr_misaligned -> "instruction address misaligned"
  | Instr_access_fault -> "instruction access fault"
  | Illegal_instruction -> "illegal instruction"
  | Breakpoint -> "breakpoint"
  | Load_addr_misaligned -> "load address misaligned"
  | Load_access_fault -> "load access fault"
  | Store_addr_misaligned -> "store address misaligned"
  | Store_access_fault -> "store access fault"
  | Ecall_from_u -> "ecall from U/VU"
  | Ecall_from_hs -> "ecall from HS"
  | Ecall_from_vs -> "ecall from VS"
  | Ecall_from_m -> "ecall from M"
  | Instr_page_fault -> "instruction page fault"
  | Load_page_fault -> "load page fault"
  | Store_page_fault -> "store page fault"
  | Instr_guest_page_fault -> "instruction guest-page fault"
  | Load_guest_page_fault -> "load guest-page fault"
  | Virtual_instruction -> "virtual instruction"
  | Store_guest_page_fault -> "store guest-page fault"

let interrupt_to_string = function
  | Supervisor_software -> "supervisor software interrupt"
  | Virtual_supervisor_software -> "VS software interrupt"
  | Machine_software -> "machine software interrupt"
  | Supervisor_timer -> "supervisor timer interrupt"
  | Virtual_supervisor_timer -> "VS timer interrupt"
  | Machine_timer -> "machine timer interrupt"
  | Supervisor_external -> "supervisor external interrupt"
  | Virtual_supervisor_external -> "VS external interrupt"
  | Machine_external -> "machine external interrupt"
  | Supervisor_guest_external -> "supervisor guest external interrupt"

let to_string = function
  | Exception e -> exception_to_string e
  | Interrupt i -> interrupt_to_string i

let pp ppf t = Format.pp_print_string ppf (to_string t)
