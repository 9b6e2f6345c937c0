(** Crash-safe migration protocol: source and destination endpoint state
    machines that stream a sealed CVM image ({!Migrate}) as fixed-size,
    individually MAC'd chunks over an unreliable, hostile courier, and
    hand ownership over with a two-phase commit.

    Protocol shape (source → destination on the left):

    {v
    Offer{total,len,chunk,tag} ->   <- Status Receiving n
    Chunk{seq,data} ...        ->   <- Ack{upto}          (go-back-N)
    Query                      ->   <- Status Prepared tag   (the vote)
    Commit                     ->   <- Status Committed tag
    Abort reason               ->   <- Status Aborted reason
    v}

    Every message carries the session id, the session epoch and a
    truncated HMAC under a session-derived key, so the courier can drop,
    duplicate, reorder and corrupt but never forge or splice. The
    endpoints are couriers only: all ownership decisions live in the
    monitors' session tables ({!Monitor.migrate_session} et al.), which
    is what makes endpoint crashes recoverable — [source_recover] and
    [dest_recover] rebuild an endpoint's position from its monitor.

    Commit rules (who may give up, and when):
    - the destination never unilaterally aborts after voting Prepared;
    - the source never aborts after its commit point
      ([Monitor.migrate_out_commit], triggered by the Prepared vote);
      past it, Commit is retried with capped backoff, forever;
    - before the vote, either side may abort (retry budget exhausted,
      or an explicit Abort), and the source reactivates its CVM.

    The courier's timing is fixed: 1 KiB chunks, a go-back-N window of
    4 chunks, a resend after 4 ticks without progress plus a backoff
    that doubles up to 32 ticks. The retry budget is the one the source
    monitor recorded for the session ({!Monitor.migrate_out_begin}'s
    default, 12 timeouts). *)

(* {2 Wire format} *)

type status =
  | St_receiving of int  (** chunks contiguously received *)
  | St_prepared of string  (** the vote; carries the prepared blob tag *)
  | St_committed of string
  | St_aborted of string
  | St_unknown  (** no state for this session (pre-Offer, or lost) *)

type payload =
  | Offer of { total : int; blob_len : int; chunk_size : int; tag : string }
  | Chunk of { seq : int; data : string }
  | Query
  | Commit
  | Abort of string
  | Ack of { upto : int }  (** cumulative: chunks [0, upto) received *)
  | Status of status

type packet = {
  p_session : string;
  p_epoch : int;
  p_ctx : Metrics.Span.ctx;
      (** causal context of the migration: stamped by the source on
          every message, echoed by the destination, MAC-covered like
          the rest of the body. [Span.none] when untraced. *)
  p_payload : payload;
}

val encode : packet -> string
val decode : string -> (packet, string) result
(** Total over arbitrary bytes; verifies the MAC. *)

(* {2 Source endpoint} *)

type source_phase =
  | S_offering
  | S_streaming
  | S_finishing
  | S_committing
  | S_done
  | S_aborted of string

type source

val source_start :
  ?ctx:Metrics.Span.ctx ->
  Monitor.t ->
  cvm:int ->
  session:string ->
  (source, Ecall.error) result
(** Open the monitor-side session ({!Monitor.migrate_out_begin}) and
    build a fresh endpoint. [ctx] is the causal context the whole
    handoff is traced under (stamped on every message, adopted by the
    destination); a fresh root trace is allocated when omitted.
    Monitor work runs with the context installed on the monitor's
    trace and always restores the previous context; the protocol
    emits only instants, so no span can be left open by a crash. *)

val source_recover :
  Monitor.t -> session:string -> (source, Ecall.error) result
(** Rebuild the endpoint after a crash from the monitor's session
    record: an undecided session re-begins under a fresh epoch (the
    pinned nonce makes the re-export byte-identical); a committed one
    resumes pushing Commit; an aborted one comes back terminal. The
    span context died with the crashed endpoint: recovery runs under
    a fresh root trace. *)

val source_step : source -> now:int -> inbox:string list -> string list
(** Feed delivered messages and the clock; returns messages to send.
    Call once per tick. *)

val source_phase : source -> source_phase
val source_events : source -> int
(** Messages processed plus timeouts fired — the crash-injection
    harness's notion of "protocol step". *)

val source_stats : source -> int * int * int
(** (chunks sent, retransmits, rejected messages). *)

val source_ctx : source -> Metrics.Span.ctx

(* {2 Destination endpoint} *)

type dest

val dest_create : Monitor.t -> session:string -> dest
val dest_recover : Monitor.t -> session:string -> dest
(** After a crash: in-flight chunks are gone, but a prepared or
    committed instance is recovered from the monitor. *)

val dest_step : dest -> now:int -> inbox:string list -> string list
(** Purely reactive: replies to whatever arrived. *)

val dest_events : dest -> int

val dest_stats : dest -> int * int * int
(** (chunks received, duplicate chunks, rejected messages). *)

val dest_ctx : dest -> Metrics.Span.ctx
(** The context adopted from the source's messages; [Span.none]
    before any traced message arrived. *)
