(** Virtio-style block device (QEMU-side emulation).

    The guest programs a fixed descriptor address, fills a 24-byte
    descriptor in shared memory — sector, length, operation, data-buffer
    GPA — and kicks the device with an MMIO write. The device translates
    the shared GPAs through the hypervisor's shared-region map and moves
    the data by DMA, which the IOPMP checks: a descriptor that smuggles a
    secure-pool address is refused with status 1 instead of leaking.
    The exitless ring ({!Virtio_ring}) carries the same requests without
    the kick; both paths run {!request}.

    Register map (offsets within the device's MMIO slot):
    - [0x00] (write, 8 B): descriptor GPA
    - [0x08] (write, 4 B): kick — process the descriptor synchronously
    - [0x10] (read, 4 B): status of the last operation (0 = OK)

    Descriptor layout: sector (8 B) | byte length (4 B) | op (4 B,
    0 = read, 1 = write) | data GPA (8 B).

    The disk contents live in sparse 4 KiB chunks (a {!Riscv.Physmem}
    store sized to the capacity): a chunk is created by the first
    non-zero byte written into it, and an absent chunk reads as zeros.
    Capacity and bounds checks are those of a dense disk of
    [capacity_sectors] sectors; only host memory differs. *)

type t

val sid : int
(** Bus-master source id used for IOPMP checks. *)

val create : bus:Riscv.Bus.t -> capacity_sectors:int -> t
(** A disk of [capacity_sectors] 512-byte sectors, all zero. Costs no
    host memory until written. Raises [Invalid_argument] on a
    non-positive capacity. *)

val set_translate : t -> (int64 -> int64 option) -> unit
(** Install the GPA→PA translation (the hypervisor's shared map for a
    CVM; an identity-ish map for a normal VM). *)

val set_trace : t -> Metrics.Trace.t -> unit
(** Attach the platform flight recorder. While it is enabled every
    kick emits a ["blk.request"] span whose end event carries
    [sector]/[len]/[op]/[status] args, stamped with whatever span
    context the workload installed on the trace. *)

val mmio_read : t -> int64 -> int -> int64
val mmio_write : t -> int64 -> int -> int64 -> unit

val requests_served : t -> int
val bytes_read : t -> int
val bytes_written : t -> int

val request :
  t ->
  write:bool ->
  sector:int ->
  len:int ->
  data_gpa:int64 ->
  (int, string) result
(** Serve one block request, for an MMIO kick (status 0 on [Ok], 1 on
    [Error]) or a ring descriptor: bounds check, DMA, counters. [Ok]
    bytes moved, or an error label for a range outside the disk, an
    unmapped page or an IOPMP-denied DMA. Never raises. *)

val read_backing : t -> sector:int -> len:int -> string
(** Inspect the disk contents (tests). Raises [Invalid_argument] when
    the range is not inside the disk, under the same bounds check as a
    guest request. *)

val write_backing : t -> sector:int -> string -> unit
(** Seed the disk contents directly, bypassing DMA and counters. Raises
    [Invalid_argument] when the range is not inside the disk. *)
