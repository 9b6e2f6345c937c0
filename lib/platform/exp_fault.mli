(** §V.C — stage-2 page-fault handling performance.

    Runs the paper's experiment for real: a guest program that touches a
    run of fresh pages, once in a normal VM (KVM handles each fault) and
    once in a confidential VM (the SM's three-stage allocator handles
    each fault). The stage-3 sample comes from a deliberately small pool
    that forces an expansion. *)

type report = {
  normal_mean : float;
  stage1_mean : float;
  stage2_mean : float;
  stage3_mean : float;
  cvm_weighted_mean : float;  (** over the CVM's actual stage mix *)
  stage1_count : int;
  stage2_count : int;
  stage3_count : int;
  normal_count : int;
  cvm_attribution : (string * int) list;
      (** per-category cycle deltas over the CVM arm (a [Metrics.Ledger]
          snapshot diff), sorted by descending delta *)
}

val run : unit -> report
(** 200 pages touched per VM (enough to exhaust the CVM arm's
    deliberately small pool and sample a stage-3 expansion). *)

val paper : (string * float) list
