(** The hypervisor's normal-memory page allocator.

    A free-list allocator over the DRAM ranges the host owns (everything
    outside the kernel image and the secure pool). Supports aligned
    multi-page allocation — needed both for Sv39x4 roots handed to
    normal VMs and for the contiguous regions donated to the Secure
    Monitor on pool expansion. *)

type t

val create : base:int64 -> size:int64 -> t
(** Manage [size] bytes of physical memory at page-aligned [base]. *)

val alloc_pages : t -> ?align:int64 -> int -> int64 option
(** [alloc_pages t ~align n] returns the base of [n] contiguous free
    pages aligned to [align] bytes (default 4 KiB), or [None]. *)

val free_pages : t -> int64 -> int -> unit
(** Return pages to the allocator. Raises [Invalid_argument] on a
    double free or on pages outside the managed range. *)

val free_bytes : t -> int64
val total_bytes : t -> int64
