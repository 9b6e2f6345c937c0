(** System bus: physical address decode over DRAM, the CLINT, the UART
    and dynamically registered MMIO devices, plus the DMA path guarded by
    the IOPMP.

    The memory map follows virt-machine convention:
    - CLINT at [0x0200_0000]
    - UART at  [0x1000_0000]
    - DRAM at  [0x8000_0000]

    CPU-side PMP checks are performed by the hart (they are per-hart
    state); the bus performs decode and the IOPMP check for DMA
    masters. *)

exception Fault of int64
(** Raised on access to an unmapped address or a denied DMA. The payload
    is the faulting physical address. *)

type t

val dram_base : int64
val clint_base : int64
val uart_base : int64

val create : dram_size:int64 -> nharts:int -> t

val dram : t -> Physmem.t
val clint : t -> Clint.t
val uart : t -> Uart.t
val iopmp : t -> Iopmp.t

val dram_size : t -> int64

val dram_end : t -> int64
(** First address past DRAM. *)

val in_dram : t -> int64 -> bool

val register_device :
  t ->
  name:string ->
  base:int64 ->
  size:int64 ->
  read:(int64 -> int -> int64) ->
  write:(int64 -> int -> int64 -> unit) ->
  unit
(** Add an MMIO device; [read]/[write] receive offsets from [base].
    Raises [Invalid_argument] if the window overlaps an existing one. *)

val is_mmio : t -> int64 -> bool
(** True when the address decodes to a device rather than DRAM. *)

val read : t -> int64 -> int -> int64
(** CPU-side read of 1, 2, 4 or 8 bytes. Raises [Fault]. *)

val write : t -> int64 -> int -> int64 -> unit
(** CPU-side write. Raises [Fault]. *)

val read_bytes : t -> int64 -> int -> string
(** Bulk DRAM read (no device access). Raises [Fault] outside DRAM. *)

val write_bytes : t -> int64 -> string -> unit
(** Bulk DRAM write (no device access). Raises [Fault] outside DRAM. *)

val write_sub : t -> int64 -> string -> int -> int -> unit
(** [write_sub t addr s pos len] writes bytes [pos .. pos + len - 1] of
    [s] at [addr] without copying the slice (see {!Physmem.write_sub}).
    Raises [Fault] when the target range leaves DRAM and
    [Invalid_argument] when [pos, len] is not a slice of [s]; nothing
    is written in either case. *)

val zero_range : t -> int64 -> int -> unit
(** [zero_range t addr len] clears [len] bytes of DRAM without building
    a buffer (see {!Physmem.zero_range}). Raises [Fault] outside DRAM. *)

val dma_read : t -> sid:int -> int64 -> int -> string
(** Device-initiated read, checked against the IOPMP. Raises [Fault]. *)

val dma_write : t -> sid:int -> int64 -> string -> unit
(** Device-initiated write, checked against the IOPMP. Raises [Fault]. *)

(** {2 Guest-physical ranges}

    The one copy between guest memory and the host, resolved page by
    page through [translate] (a stage-2 table or the hypervisor's shared
    map). With a device [sid] every page is an IOPMP-checked DMA access;
    without one it is a CPU access. Both raise [Fault] when the IOPMP
    denies a page or a page leaves DRAM. *)

val read_gpa :
  t -> ?sid:int -> translate:(int64 -> int64 option) -> int64 -> int ->
  string option
(** [read_gpa t ?sid ~translate gpa len]: [None] when a page of the
    range does not translate. A range inside one page is returned as
    read, with no intermediate buffer. *)

val write_gpa :
  t -> ?sid:int -> translate:(int64 -> int64 option) -> int64 -> string ->
  bool
(** [write_gpa t ?sid ~translate gpa data] writes each page as a slice
    of [data]. [false] when a page does not translate; the pages before
    it were written. *)
