(** Core-Local Interruptor: the machine timer ([mtime]/[mtimecmp]) and
    software-interrupt pending bits ([msip]), one timer comparator and
    one msip per hart.

    The memory map follows SiFive convention relative to the CLINT base:
    - [0x0000 + 4*hart] : msip
    - [0x4000 + 8*hart] : mtimecmp
    - [0xbff8]          : mtime *)

type t

val create : nharts:int -> t
val nharts : t -> int

val mtime : t -> int64
val set_mtime : t -> int64 -> unit
val mtimecmp : t -> int -> int64
val set_mtimecmp : t -> int -> int64 -> unit
val msip : t -> int -> bool

val timer_pending : t -> int -> bool
(** [mtime >= mtimecmp hart] — drives [mip.MTIP]. *)

val generation : t -> int
(** Configuration generation: bumped on every [set_mtimecmp] and
    every MMIO [write] (including a direct [mtime] write), but not
    by the per-step [set_mtime] clock sync. The interpreter's
    timer-poll fast path memoises the next mtime at which the pending
    state can change and revalidates only when this counter moves. *)

val read : t -> int64 -> int -> int64
(** MMIO read at an offset from the CLINT base. *)

val write : t -> int64 -> int -> int64 -> unit
(** MMIO write at an offset from the CLINT base. *)

val size : int64
(** Size of the CLINT MMIO window. *)
