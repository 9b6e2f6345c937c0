(** Every metric the benchmark reports. [BENCHMARK.json] declares the
    same names; the smoke test holds the two together. *)

type kind =
  | Sim  (** simulated: deterministic, compared exactly *)
  | Host  (** host wall clock or memory: noisy, compared within a bound *)

type better = Lower | Higher
type def = { name : string; unit : string; kind : kind; better : better }

val end_to_end : def list
val per_layer : def list

val self_layers : string list
(** The span-name prefixes whose self time the traced pass reports as
    [<layer>.self_ms]. *)

val find : string -> def option
