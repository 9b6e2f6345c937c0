(** Figure 4 — IOZone sequential read/write throughput across file sizes
    (64 KiB – 512 MiB) and record sizes (8/128/512 KiB), normal vs
    confidential VM.

    The workload model counts the record processing and emits the
    device-request stream after guest page-cache batching; the event
    model prices each request's MMIO accesses (or, on the exitless
    ring, ring accesses), device service time and, for the confidential
    arms, the SWIOTLB bounce copy. Each point's workload runs once and
    is priced under all three arms. *)

type point = {
  op : Workloads.Iozone.op;
  file_kb : int;
  record_kb : int;
  normal_mb_s : float;
  cvm_mb_s : float;  (** the CVM's virtio-blk on exitful MMIO kicks *)
  overhead_pct : float;  (** of [cvm_mb_s]'s cycles over the normal VM's *)
  cvm_exitless_mb_s : float;
      (** the same CVM with its virtio-blk on the exitless ring *)
}

val run : unit -> point list
(** The full Figure 4 grid: 2 ops × 8 file sizes × 3 record sizes. *)

val max_overhead : point list -> float
val small_file_max_overhead : point list -> float
(** Maximum overhead among files of at most 16 MiB (the paper: "for
    smaller files, the performance difference is minimal"). *)
