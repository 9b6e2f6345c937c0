(** One workload's run: the pass schedule, the checks and the metrics.

    Passes, in order: a warm-up at a quarter size (discarded; it only
    warms the host heap and code), at least three timed CVM passes and
    more until [seconds] of them have run, one normal-VM pass on
    identical inputs (for [cvm_cycle_ratio]) and, with [trace], one
    traced CVM pass at a quarter size. Every pass builds fresh testbeds,
    so simulated statistics start cold and repeat exactly. *)

type result = {
  workload : string;
  seed : int;
  op : string;
  timed_passes : int;
  ops_per_pass : int;
  latency_samples : int;  (** per timed pass *)
  attempted : int;  (** ops over every pass and both arms *)
  failed : int;
  failures : string list;
  end_to_end : (string * Summary.t) list;
  per_layer : (string * Summary.t) list;
}

val run :
  ?chrome:string ->
  Workload.t ->
  seed:int ->
  seconds:float ->
  trace:bool ->
  scale:float ->
  result
(** [chrome] is where the traced pass's spans go. [scale] sizes every
    pass (1.0 is the benchmark's size). Raises [Layers.Unmapped] when a
    ledger category is missing from the layer table. *)

val correct : result -> bool

val to_json : result -> Metrics.Export.json
(** The full record: every metric with its unit, median, quartiles and
    per-pass samples. *)

val result_line : result -> trace:bool -> string
(** [{"correct", "attempted", "failed", "metrics"}] with the end-to-end
    metrics, or the per-layer ones when [trace]. *)

val print : result -> unit
