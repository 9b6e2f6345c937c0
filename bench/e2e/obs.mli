(** What one pass of a workload observed.

    A pass builds one or more fresh testbeds. On each, the workload
    first sets up (testbed and VM creation, timed as one [setup_s]
    sample) and then runs a measured segment ({!measure}). Around each
    segment the harness snapshots the ledger and the public counters of
    every layer and adds the differences to the pass's {!tally}.

    Calls into a layer go through the wrappers below, which time them
    on the host clock. In a traced pass each wrapped call also becomes a
    span (name, start, end, parent, op id), kept in memory until
    {!write_chrome}. *)

type tally = {
  mutable cycles : int;  (** simulated cycles of the measured segments *)
  layer_cycles : int array;  (** indexed by [Layers.index] *)
  mutable instret : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable entries : int;
  mutable entry_cycles : int;
  mutable exits : int;
  mutable exit_cycles : int;
  mutable faults : int;
  mutable fault_cycles : int;
  mutable fault_stage2 : int;
  mutable fault_stage3 : int;
  mutable pmp_syncs : int;
  mutable pmp_sync_skips : int;
  mutable world_toggles : int;
  mutable world_skips : int;
  mutable mmio : int;
  mutable expansions : int;
  mutable trace_recorded : int;
  mutable trace_dropped : int;
  mutable audit_findings : int;
  mutable slices : int;
  mutable creates : int;
  mutable create_cycles : int;
  mutable destroys : int;
  mutable destroy_cycles : int;
  mutable ring_notifications : int;
  mutable ring_rejects : int;
  mutable blk_bytes : int;
  mutable latency : int list;  (** simulated latency samples *)
  mutable failed : int;  (** ops that failed an output check *)
  mutable failures : string list;
  mutable setups : float list;  (** host seconds per set-up *)
  mutable run_s : float;  (** host seconds inside measured segments *)
  mutable minor_words : float;
  mutable major_gcs : int;
}

type t

val create : traced:bool -> unit -> t
val tally : t -> tally

val set_op : t -> int -> unit
(** The op id stamped on spans opened from now on. *)

val fail : t -> ops:int -> string -> unit
(** Count [ops] failed ops, with a reason. *)

val sample : t -> int -> unit
(** Record one simulated latency sample. *)

val call : t -> string -> (unit -> 'a) -> 'a
(** [call t name f] runs [f] and adds its host time to [name]; [name]
    is [layer.function]. *)

val host_time : t -> string -> int * float
(** Calls made and host seconds spent under a {!call} name. *)

val measure : t -> Platform.Testbed.t -> (unit -> 'a) -> 'a
(** Close the current set-up sample, then run one measured segment on
    the testbed and audit it. Raises [Layers.Unmapped] when the ledger
    moved a category the layer table does not know. *)

(** {2 Timed calls into the layers} *)

val testbed : t -> Platform.Testbed.t
(** A fresh default testbed; starts a set-up sample. In a traced pass
    the monitor's flight recorder is switched on. *)

val create_cvm :
  t -> Platform.Testbed.t -> image:(int64 * string) list ->
  (Hypervisor.Kvm.cvm_handle, string) result

val create_nvm :
  t -> Platform.Testbed.t -> image:(int64 * string) list ->
  (Hypervisor.Kvm.nvm, string) result

val destroy_cvm :
  t -> Platform.Testbed.t -> Hypervisor.Kvm.cvm_handle ->
  (unit, Zion.Ecall.error) result

type guest = Cvm of Hypervisor.Kvm.cvm_handle | Nvm of Hypervisor.Kvm.nvm

val run_to_shutdown :
  t -> Platform.Testbed.t -> guest -> quantum:int -> after_slice:(int -> unit) ->
  bool
(** Run slices on hart 0 until the guest shuts down: each programs the
    timer [quantum] cycles ahead and calls [Kvm.run_cvm] or
    [Kvm.run_normal_vm]; [after_slice n] runs after slice [n]. [false],
    with a failure recorded, when the guest stops for any other
    reason. *)

val run_wave : t -> Hypervisor.Sched.t -> harts:int list ->
  (int * Hypervisor.Kvm.cvm_outcome) list
(** [Sched.run_on_harts] until every CVM of the wave finishes. *)

val redis : t -> Workloads.Redis.t -> string -> string

(** {2 Traced pass} *)

val self_times : t -> (string * float) list
(** Host seconds per layer (the span-name prefix) not covered by child
    spans. They sum to the duration of the root spans. *)

val spans_balanced : t -> bool
val write_chrome : t -> string -> unit
(** Chrome trace_event JSON of every span, as B/E pairs in µs. *)
