(** RISC-V privilege modes, including the hypervisor-extension virtual
    modes. The effective mode of a hart is the pair of the base privilege
    level and the virtualisation bit V, as in the privileged spec. *)

type t =
  | M  (** machine mode — the Secure Monitor's home *)
  | HS (** hypervisor-extended supervisor — the untrusted hypervisor *)
  | U  (** host user mode — QEMU and host applications *)
  | VS (** virtual supervisor — a guest kernel *)
  | VU (** virtual user — guest applications *)

val virtualized : t -> bool
(** [true] for [VS] and [VU] (V=1). *)

val level : t -> int
(** Numeric privilege level as encoded in [mstatus.MPP]:
    M=3, HS/VS=1, U/VU=0. *)

val of_level : virt:bool -> int -> t
(** Inverse of [level] given the virtualisation bit.
    Raises [Invalid_argument] on an invalid encoding (e.g. V=1, level 3). *)

val to_string : t -> string
val pp : Format.formatter -> t -> unit
