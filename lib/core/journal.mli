(** The Secure Monitor's write-ahead intent journal (crash consistency).

    Every multi-step state transition in [Monitor] — CVM create and
    image load, pool expansion, guest relinquish, destroy, quarantine,
    and the migration-session transitions — appends a typed {e intent}
    record before its first durable mutation and marks it {e done} after
    the last. The journal models the small battle-tested NVRAM region a
    real monitor would keep next to its session table: it survives a
    host/SM restart, while CSRs, TLBs, PMP entries and the monitor's
    scratch tables do not.

    On restart, [Monitor.recover] replays every still-pending record:
    roll {e forward} for operations whose completion is derivable from
    durable state alone (destroy, relinquish, quarantine, pool growth,
    migration commits — all replay steps are idempotent), roll {e back}
    for operations whose inputs lived in untrusted volatile memory
    (create, load, migrate-in prepare — the half-built object is
    scrubbed and reclaimed). Either way the monitor converges to a state
    where [Monitor.audit] is clean and exactly-one-owner holds.

    {2 Journal points and the crash model}

    [append], [checkpoint] and [mark_done] are the {e journal points}:
    each models one durable NVRAM write. The crash injector
    ([set_crash_after]) kills the monitor at exactly these points, with
    write-then-die semantics — the record lands, then [Crashed] is
    raised — so a sweep over [1 .. points-of-the-op] visits every
    intermediate durable state the operation can be torn at, including
    the trivial ones (intent written, nothing mutated; everything
    mutated, completion mark written). Checkpoints exist {e only} to
    create those intermediate crash points (and a human-readable
    progress label); recovery never reads them — it inspects the actual
    durable state and repairs idempotently.

    Journal writes charge no cycles and touch no ledger category: the
    non-crash fast path costs a few list operations and nothing else. *)

type op =
  | Op_create of { cvm : int; block_base : int64; nvcpus : int }
      (** create_cvm: [cvm] is the id being minted, [block_base] the
          pool block about to be popped for its root tables. *)
  | Op_load of { cvm : int; gpa : int64; npages : int }
      (** load_image: the payload itself lives in untrusted memory and
          is not journaled — a torn load rolls back. *)
  | Op_expand of { base : int64; size : int64 }
      (** register_secure_region (pool growth). *)
  | Op_relinquish of { cvm : int; gpa : int64; pa : int64 }
      (** guest returned a private page: unmap + scrub + remember. *)
  | Op_destroy of { cvm : int }
  | Op_quarantine of { cvm : int; reason : string }
  | Op_mig_out_begin of { session : string; cvm : int }
  | Op_mig_out_abort of { session : string }
  | Op_mig_out_commit of { session : string }
  | Op_mig_in_prepare of {
      session : string;
      epoch : int;
      mutable built : int option;
          (** the destination CVM id, recorded (with a checkpoint) the
              moment it exists, so a crash mid-restore can find and
              scrub the half-built instance *)
    }
  | Op_mig_in_commit of { session : string }
  | Op_mig_in_abort of { session : string }
  | Op_chan_grant of { chan : int; a : int; b : int; block_base : int64 }
      (** chan_grant: [chan] is the channel id being minted, [block_base]
          the pool block about to be popped for its ring page. Rolls
          back: a torn offer frees the orphaned block. *)
  | Op_chan_accept of { chan : int }
      (** chan_accept: the two [Spt.map_private] installs. Rolls back to
          the offered state (both mappings removed). *)
  | Op_chan_revoke of { chan : int; degraded : bool }
      (** chan_revoke, or the strike-budget degradation when [degraded]:
          scrub + unmap both endpoints + free the ring block. Rolls
          forward (idempotent teardown). *)

type state = Pending | Done

type record = {
  seq : int;  (** monotone sequence number; replay order *)
  op : op;
  mutable state : state;
  mutable step : string;
      (** last checkpoint label; progress breadcrumb for reports *)
}

type t

exception Crashed
(** The injected SM death. Unlike an internal fault (absorbed by the
    host-ABI boundary into [Error (Internal _)]), this models the whole
    monitor dying mid-operation: it must escape every boundary so the
    test driver can reboot and recover. *)

val create : unit -> t

val append : t -> op -> record
(** Durably record an intent (one journal point). Must precede the
    operation's first durable mutation. *)

val checkpoint : t -> record -> string -> unit
(** An intermediate durable write inside an operation (one journal
    point). Records a progress label; recovery ignores it. *)

val mark_done : t -> record -> unit
(** Durably mark the operation complete (one journal point). After
    this, recovery will not replay the record. *)

val pending : t -> record list
(** Still-pending records in sequence (replay) order. *)

val records : t -> record list
(** All retained records, oldest first (done records are eventually
    compacted away). *)

val length : t -> int
val compact : t -> unit
(** Drop every [Done] record. Recovery compacts after replay. *)

val writes : t -> int
(** Total journal points since creation — how a sweep discovers the
    number of crash points an operation has. *)

(* {2 Crash injection} *)

val set_crash_after : t -> int -> unit
(** Arm the injector: the [n]-th journal point from now ([n >= 1])
    performs its write and then raises {!Crashed} (write-then-die).
    One-shot: the injector disarms as it fires. *)

val disarm : t -> unit
val armed : t -> bool

(* {2 Serialization (the NVRAM wire format)} *)

val record_to_string : record -> string
(** One line, [|]-separated, string payloads hex-encoded — the format
    documented in DESIGN.md ("Crash consistency & recovery"). *)

val record_of_string : string -> (record, string) result
(** Total inverse of [record_to_string]; [Error] on any malformed
    input. *)

val dump : t -> string
(** Every retained record, one per line, oldest first. *)
