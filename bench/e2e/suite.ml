let all =
  [ Resp_net.workload; Blk_ring.workload; Tenant_churn.workload;
    Guest_compute.workload ]

let find name = List.find_opt (fun w -> w.Workload.name = name) all
