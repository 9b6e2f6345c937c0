(** Sparse physical memory.

    Backing store for the machine's DRAM: 4 KiB pages materialised on the
    first non-zero write or [page_handle], so a multi-gigabyte address
    space costs only the bytes that were ever made non-zero. Writing
    zeros to a page that was never materialised is a no-op: it already
    reads as zeros, and with no handle holder nothing can tell. All
    multi-byte accesses are little-endian, as on RISC-V. *)

type t

type page
(** Handle to one backing page: identity plus a write-generation
    counter. *)

val page_size : int
(** 4096. *)

val create : size:int64 -> t
(** A memory of [size] bytes starting at offset 0 (the bus adds the DRAM
    base). Accesses beyond [size] raise [Invalid_argument]. *)

val size : t -> int64
val read_u8 : t -> int64 -> int
val write_u8 : t -> int64 -> int -> unit
val read_u16 : t -> int64 -> int
val write_u16 : t -> int64 -> int -> unit
val read_u32 : t -> int64 -> int64
val write_u32 : t -> int64 -> int64 -> unit
val read_u64 : t -> int64 -> int64
val write_u64 : t -> int64 -> int64 -> unit

val read_bytes : t -> int64 -> int -> string
val write_bytes : t -> int64 -> string -> unit

val write_sub : t -> int64 -> string -> int -> int -> unit
(** [write_sub t off s pos len] stores bytes [pos .. pos + len - 1] of
    [s] at [off] without copying the slice first, so a caller can load a
    large string page by page. Raises [Invalid_argument] when
    [pos, len] is not a slice of [s] or [off, len] is out of range;
    nothing is written then. *)

val zero_range : t -> int64 -> int64 -> unit
(** [zero_range t off len] clears a byte range (page scrubbing on
    confidential-VM memory reclamation). Materialised pages in the range
    are cleared in place and have their generation bumped; absent pages
    are skipped and stay absent. *)

val allocated_pages : t -> int
(** Number of 4 KiB pages materialised so far: those that ever took a
    non-zero byte or were handed out by [page_handle]. Pages are never
    dropped, so the count only grows. *)

val page_handle : t -> int64 -> page
(** [page_handle t off] — the backing page containing byte [off]
    (materialising it if absent). The handle stays valid for the
    life of [t]; PA-keyed caches hold it to validate with one load.
    Raises [Invalid_argument] when [off] is out of range. *)

val page_gen : page -> int
(** Write generation of the page: bumped on {e every} mutation path
    (CPU store, DMA, bulk load, scrub). A cache that recorded
    [page_gen] at fill time is stale iff the value changed. *)
