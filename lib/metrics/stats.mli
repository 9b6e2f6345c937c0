(** Descriptive statistics over float samples.

    Used by the benchmark harness to summarise repeated measurements
    (switch latencies, fault-handling times, throughput rounds). *)

val mean : float array -> float
(** Arithmetic mean. Raises [Invalid_argument] on an empty array. *)

val stddev : float array -> float
(** Sample standard deviation (Bessel-corrected); [0.] for n < 2. *)

val percentile : float -> float array -> float
(** [percentile p xs] for [p] in \[0;100\], linear interpolation between
    order statistics. Raises [Invalid_argument] on an empty array or a
    [p] outside the range. *)

val interleaved_pairs :
  pairs:int -> (on:bool -> float) -> float array * float array
(** [interleaved_pairs ~pairs run] times an A/B comparison, where
    [run ~on] performs one run of arm [on] and returns its time. A pair
    is four runs, off-on-on-off or on-off-off-on in alternate pairs, and
    each arm's time in a pair is the faster of its two runs: a host-load
    burst that slows one run is dropped, and the symmetric order cancels
    drift within the pair. Returns the per-pair times [(off, on)]. *)

val geomean : float array -> float
(** Geometric mean of strictly positive samples. *)

val pct_change : baseline:float -> float -> float
(** [pct_change ~baseline v] is the signed percent change of [v]
    relative to [baseline], e.g. [+2.59] for a 2.59 % slowdown. *)
