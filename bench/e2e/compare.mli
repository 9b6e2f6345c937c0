(** Compare two result files metric by metric (the choosing-metrics
    rules): simulated metrics compare exactly; a host metric is
    [worse] only when its median worsens by more than the bound
    [BENCHMARK.json] declares, and [unresolved] when its own spread
    exceeds that bound, unless every new sample beats every base one.
    Per-layer metrics, which have no bound, are listed unless [same]. *)

val run : benchmark:string -> string -> string -> bool
(** [run ~benchmark base next] prints one row per workload and metric;
    [false] when any end-to-end metric is [worse]. Each file holds a
    full run, one workload's record, or a JSON list of them, whose
    samples are pooled. *)
