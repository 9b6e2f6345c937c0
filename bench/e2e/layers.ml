type layer = Riscv | Zion | Hypervisor

let all = [ Riscv; Zion; Hypervisor ]
let index = function Riscv -> 0 | Zion -> 1 | Hypervisor -> 2

(* Every ledger category the simulator charges, by exact name. A prefix
   rule would quietly absorb a new or renamed category; an exact table
   makes it fail the run instead. [trap_entry] and [xret] are charged
   from the interpreter, [Kvm] and [Monitor] alike; they count as riscv
   until the ledger splits them by caller. *)
let table =
  List.map
    (fun c -> (c, Riscv))
    [ "alu"; "load"; "store"; "branch"; "jump"; "muldiv"; "amo"; "csr";
      "fence"; "wfi"; "page_walk"; "trap_entry"; "xret" ]
  @ List.map
      (fun c -> (c, Zion))
      [ "cvm_entry"; "cvm_exit"; "sm_fault"; "sm_cvm_create"; "sm_scrub";
        "sm_seal"; "sm_shootdown"; "sm_region_setup"; "sm_getreg";
        "sm_setreg"; "sm_chan"; "sm_migrate"; "sm_recover";
        "sm.internal_fault" ]
  @ List.map
      (fun c -> (c, Hypervisor))
      [ "hs_mmio"; "hs_timer_tick"; "kvm_fault"; "nvm_entry";
        "nvm_tlb_fence"; "ring_submit"; "ring_consume";
        "ring_consume_check"; "ring_host_poll"; "ring_host_service";
        "ring_notify"; "expand_host_work"; "expand_backoff" ]

exception Unmapped of string

let of_category c =
  match List.assoc_opt c table with Some l -> l | None -> raise (Unmapped c)
