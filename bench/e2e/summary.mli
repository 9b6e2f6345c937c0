(** Median and quartiles of a metric over the passes of a run. *)

type t = { value : float; p25 : float; p75 : float; samples : float list }
(** [value] is the median. *)

val median : float list -> float

val of_samples : float list -> t
(** Median and the first and third quartile, as Python's
    [statistics.quantiles(xs, n=4)] computes them; a single sample is
    its own quartiles. *)

val exact : float -> t

val spread : t -> float
(** Distance between the quartiles as a share of the median. *)

val percentile : float -> int list -> int
(** Nearest-rank percentile; [0] for no samples. *)
