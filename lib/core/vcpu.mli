(** Secure and shared vCPU structures (paper §IV.B).

    The {e secure vCPU} lives in Secure-Monitor memory and holds the
    complete architectural state of a confidential VM's virtual CPU:
    the 31 general registers, pc, and the VS-level CSR context. The
    hypervisor can never address it.

    The {e shared vCPU} lives in hypervisor memory. On each exit the SM
    copies into it only the fields that exit legitimately needs (for an
    MMIO exit: the trapping instruction, the faulting GPA, and the store
    data). On resume the SM reads back the hypervisor's reply under
    {e Check-after-Load}: every value is copied once into SM memory and
    validated there before it can influence the secure state, so a
    hypervisor racing the SM (TOCTOU) can at worst corrupt its own
    reply. *)

type secure = {
  regs : int64 array;  (** x0..x31 (x0 stays 0) *)
  mutable pc : int64;
  mutable vsstatus : int64;
  mutable vstvec : int64;
  mutable vsscratch : int64;
  mutable vsepc : int64;
  mutable vscause : int64;
  mutable vstval : int64;
  mutable vsatp : int64;
  mutable hvip : int64;  (** pending interrupt injections *)
  mutable generation : int;
      (** bumped on every save; consistency check at restore *)
}

type shared = {
  mutable s_htinst : int64;
  mutable s_htval : int64;
  mutable s_gpa : int64;
  mutable s_data : int64;  (** store data out / load result in *)
  mutable s_reg_index : int;  (** destination register for MMIO loads *)
  mutable s_pc_advance : int64;  (** instruction length to skip (2 or 4) *)
}

val fresh_secure : entry_pc:int64 -> secure
val fresh_shared : unit -> shared

val save_from_hart : Riscv.Hart.t -> secure -> unit
(** Copy the hart's guest-visible state into the secure vCPU and bump
    the generation counter. *)

val restore_to_hart : secure -> Riscv.Hart.t -> unit
(** Load the secure vCPU back into the hart (registers and VS CSRs). *)

type mmio = {
  mmio_write : bool;
  mmio_gpa : int64;
  mmio_size : int;
  mmio_unsigned : bool;  (** zero-extending load *)
  mmio_data : int64;  (** valid for writes *)
  mmio_reg : int;  (** destination register for reads *)
}

val decode_mmio :
  int64 array -> htinst:int64 -> gpa:int64 -> (mmio, string) result
(** Parse the trapping load/store from the recorded instruction word;
    a store's data comes from the register file given. *)

val expose_mmio : shared -> mmio -> htinst:int64 -> int
(** Populate the shared vCPU for an MMIO exit; returns the number of
    items stored (cost accounting). *)

val absorb_mmio_result :
  shared -> secure -> mmio -> (int, string) result
(** Check-after-Load: read the hypervisor's reply out of the shared
    vCPU, validate it, and apply it to the secure vCPU (write the load
    result, advance pc). Returns the number of items loaded, or an error
    describing the rejected tampering. *)
