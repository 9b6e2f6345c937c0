(** The four workloads, in run order: [resp_net] (world switches),
    [blk_ring] (exitless ring polling), [tenant_churn] (lifecycle and
    faults) and [guest_compute] (the interpreter). *)

val all : Workload.t list
val find : string -> Workload.t option
