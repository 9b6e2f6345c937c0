(** Trap-delegation control (paper §IV.A).

    ZION's short path works because the Secure Monitor reprograms the
    delegation CSRs on every world switch:

    - In {e Normal mode}, delegation looks like stock OpenSBI/KVM:
      supervisor traps and guest-page faults go to HS so the hypervisor
      runs unmodified.
    - In {e CVM mode}, only the causes the confidential VM can handle
      itself are delegated (to VS, via both medeleg and hedeleg);
      everything else — guest-page faults, VS-level ecalls, interrupts —
      vectors to the SM, never to the untrusted hypervisor. *)

val normal_medeleg : int64
val normal_mideleg : int64
val normal_hedeleg : int64
val normal_hideleg : int64
val cvm_medeleg : int64
val cvm_mideleg : int64
val cvm_hedeleg : int64
val cvm_hideleg : int64

val apply_normal : Riscv.Hart.t -> unit
val apply_cvm : Riscv.Hart.t -> unit
