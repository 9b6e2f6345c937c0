(** Flight recorder — a fixed-capacity ring buffer of structured events.

    The trace is the event-level companion of the cycle {!Ledger}: where
    the ledger answers "how many cycles went to category X in total",
    the trace answers "show me {e one} world switch / stage-3 fault /
    Check-after-Load rejection as an event in time". Events are stamped
    with the ledger's cycle clock (injected as [clock] at creation) plus
    hart / CVM / vCPU identity, and can be exported as JSON-lines or as
    Chrome [trace_event] JSON loadable in [chrome://tracing] and
    Perfetto.

    Recording is disabled by default. While disabled every recording
    function returns after a single mutable-field test and allocates
    nothing; instrumented call sites that would build argument lists
    should guard on {!is_enabled} first. When the ring is full the
    oldest events are overwritten and counted in {!dropped} — except
    counter samples, which after wraparound may never evict
    non-counter events (see {!counter} and {!coalesced}).

    A causal {!Span.ctx} can be installed with {!set_ctx}; while one
    is installed every recorded event carries
    [trace]/[span]/[parent] args, so the Chrome-trace export can
    stitch all the events one request caused into a single tree. *)

type phase =
  | Span_begin  (** start of a duration span (Chrome ["B"]) *)
  | Span_end  (** end of a duration span (Chrome ["E"]) *)
  | Instant  (** a point event (Chrome ["i"]) *)
  | Counter of int  (** a sampled counter value (Chrome ["C"]) *)

type event = {
  ts : int;  (** ledger cycles at recording time *)
  name : string;
  phase : phase;
  hart : int;  (** [-1] when not hart-specific *)
  cvm : int;  (** [-1] for the host / Secure Monitor itself *)
  vcpu : int;  (** [-1] when not vCPU-specific *)
  args : (string * string) list;
}

type t

val create : ?capacity:int -> clock:(unit -> int) -> unit -> t
(** Default capacity is 65536 events. [clock] is sampled once per
    recorded event; bind it to [Ledger.now] of the platform ledger.
    No ring is allocated yet: a trace that is never enabled costs a
    few dozen words, and reads as an empty trace of the configured
    {!capacity}. *)

val enable : t -> unit
(** Start recording. The first call allocates the ring at the
    capacity given to {!create}; {!disable} and later [enable]s keep
    it. *)

val disable : t -> unit
val is_enabled : t -> bool

val clear : t -> unit
(** Drop all buffered events and zero {!recorded}. Wraparound losses
    accumulated so far are folded into a persistent tally, so
    {!dropped} survives [clear] (and disable/re-enable cycles). *)

val set_ctx : t -> Span.ctx -> unit
(** Install the causal context stamped on every subsequently recorded
    event. A no-op while the trace is disabled (so the disabled path
    stays allocation-free). *)

val clear_ctx : t -> unit
(** Remove the installed context. Safe (and cheap) in any state. *)

val ctx : t -> Span.ctx
(** The currently installed context, or [Span.none]. *)

val span_begin :
  t -> ?hart:int -> ?cvm:int -> ?vcpu:int ->
  ?args:(string * string) list -> string -> unit

val span_end :
  t -> ?hart:int -> ?cvm:int -> ?vcpu:int ->
  ?args:(string * string) list -> string -> unit

val instant :
  t -> ?hart:int -> ?cvm:int -> ?vcpu:int ->
  ?args:(string * string) list -> string -> unit

val counter : t -> ?hart:int -> ?cvm:int -> string -> int -> unit
(** [counter t name v] records a sampled counter value (a Perfetto
    counter track). Once the ring has wrapped, a counter sample whose
    eviction victim is a non-counter event does not evict it: the
    sample instead updates the most recent buffered sample of the
    same counter in place (value and timestamp), or is dropped if
    none survives in the ring. Either outcome counts in
    {!coalesced}. This guarantees a flood of counter samples can
    never flush span structure out of the ring. *)

val events : t -> event list
(** Buffered events, oldest first. *)

val recorded : t -> int
(** Total events recorded since creation (or [clear]), including any
    that have since been overwritten. *)

val dropped : t -> int
(** Cumulative events lost to ring wraparound since creation,
    including losses from before any [clear]:
    [lost_before_clears + max 0 (recorded - capacity)]. *)

val coalesced : t -> int
(** Counter samples absorbed (updated in place or dropped) by the
    eviction guard instead of evicting a non-counter event. *)

val capacity : t -> int

val to_jsonl : t -> string
(** One JSON object per line:
    [{"ts":..,"ph":"B","name":..,"hart":..,"cvm":..,"vcpu":..,"args":{..}}]. *)

val to_chrome : t -> string
(** Chrome [trace_event] JSON (the [{"traceEvents":[...]}] object form).
    Spans and instants land on [pid] = CVM id (pid 0 is the host /
    Secure Monitor) and [tid] = hart; process-name metadata events label
    each pid. Timestamps are ledger cycles in microseconds of a 100 MHz
    clock. *)
