(** Migration driver: runs one crash-safe migration between two
    monitors over a pair of seeded lossy channels ({!Channel}), with
    optional crash injection at a chosen protocol step on either end.

    The crashed endpoint loses all courier state (timers, send window,
    reassembly buffer); 5 ticks later it is rebuilt with
    [Zion.Migrate_proto.source_recover]/[dest_recover], which re-derive
    its position from the monitor's durable session record. The driver
    never touches the monitors itself — outcome and ownership are read
    back from them, the only authority. *)

type side = Source | Dest

val side_to_string : side -> string

type crash = {
  at : int;  (** crash when that side's event counter reaches this *)
  side : side;
}

type outcome =
  | Committed of int  (** destination CVM id now owning the guest *)
  | Aborted of string

type stats = {
  ticks : int;
  src_events : int;
  dst_events : int;
  chunks_sent : int;
  retransmits : int;
  chunks_recv : int;
  dup_chunks : int;
  rejected : int;
  crashes : int;
  recoveries : int;
  fwd : Channel.stats;
  rev : Channel.stats;
}

val pp_stats : Format.formatter -> stats -> unit

val handoff_clean :
  src:Zion.Monitor.t ->
  dst:Zion.Monitor.t ->
  cvm:int ->
  session:string ->
  ([ `Source | `Dest ], string) result
(** Exactly one owner, read from the monitors (a side owns the guest
    iff it holds a current or future-runnable instance: a destination's
    uncommitted prepared copy does not count, a source's resumable
    [Migrating_out] lock does), and the losing side holds nothing live
    for this migration (prepared-but-not-committed destination instance
    scrubbed, committed-away source instance destroyed). *)

val run :
  ?faults:Channel.faults ->
  ?seed:int ->
  ?crash:crash ->
  src:Zion.Monitor.t ->
  dst:Zion.Monitor.t ->
  cvm:int ->
  session:string ->
  unit ->
  (outcome * stats, string) result
(** Drive the migration to a terminal state. 200 extra ticks run after
    the source terminates so terminal messages (Abort, Commit acks) can
    still drain through a lossy channel. [Error] means the protocol did
    not terminate within 20,000 ticks or an endpoint could not recover —
    both harness-level failures, distinct from a clean [Aborted]. *)
