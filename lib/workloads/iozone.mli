(** IOZone-style sequential file I/O workload (Figure 4).

    Models the guest-side file path: the benchmark writes (then reads) a
    file of a given size in units of the record size through a page
    cache. Records accumulate in the cache; every [flush_threshold]
    bytes the file system issues one virtio-blk request (the guest
    kernel's write-back batching), and reads miss the cache at the same
    granularity after a cache cold start. The emitted event stream — a
    per-request byte count — is priced by the experiment layer under
    normal-VM or CVM I/O costs.

    The model computes two things, both in closed form from the sizes:
    the CPU work of the record loop (one syscall's bookkeeping plus a
    doubleword memcpy of a full record, per record, the last one
    included), and the device requests — the bytes past the dirty limit
    (writes) or the page cache (reads), as full [flush_threshold]
    requests followed by the remainder. *)

type op = Write | Read

type event = Io_request of { bytes : int }

type run = {
  file_kb : int;
  record_kb : int;
  op : op;
  events : event list;  (** in issue order *)
  ops : Opcount.t;  (** CPU work: record memcpy + bookkeeping *)
}

val flush_threshold : int
(** Bytes of dirty page cache that trigger one block-device request
    (128 KiB, matching a typical max request size). *)

val run : op:op -> file_kb:int -> record_kb:int -> run
(** A record larger than the file is clamped to the file size.
    @raise Invalid_argument on a non-positive size. *)

val file_sizes_kb : int list
(** Figure 4's x axis: 64 KiB to 512 MiB in powers of four. *)

val record_sizes_kb : int list
(** 8, 128 and 512 KiB, as in the paper. *)

val locality : Opcount.locality
