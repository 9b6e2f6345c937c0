(** Guest-code helpers shared by the workloads. *)

val s3 : int
(** A register the {!Guest.Gprog} sequences and {!repeat} never touch. *)

val touch_bounce : int list -> Riscv.Decode.t list
(** Store to each listed SWIOTLB bounce slot, as a guest kernel does at
    boot. A CVM's slots are pre-mapped by [Kvm.create_cvm_guest]; a
    normal VM's are mapped on first touch, and device DMA into a slot
    the guest never touched would find no mapping. *)

val repeat : times:int -> Riscv.Decode.t list -> Riscv.Decode.t list
(** Run [body] [times] times: a counted loop on register s2 closed by a
    [jal], so a looped block of unrolled requests keeps the image small.
    The body must not write s2. *)
