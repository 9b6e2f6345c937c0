type point = {
  op : Workloads.Iozone.op;
  file_kb : int;
  record_kb : int;
  normal_mb_s : float;
  cvm_mb_s : float;
  overhead_pct : float;
  cvm_exitless_mb_s : float;
}

let clock_hz = 1e8

let price ~monitor kind (run : Workloads.Iozone.run) =
  let vm =
    Macro_vm.create ~kind ~monitor ~locality:Workloads.Iozone.locality ()
  in
  Macro_vm.add_ops vm run.Workloads.Iozone.ops;
  List.iter
    (fun (Workloads.Iozone.Io_request { bytes }) ->
      Macro_vm.add_blk_request vm ~bytes)
    run.Workloads.Iozone.events;
  (* Steady-state I/O: IOZone's measured passes run against a warm page
     cache whose pages faulted in long before, so demand paging is not
     part of the measurement window (in either arm). *)
  Macro_vm.total_cycles vm

let run () =
  let tb = Testbed.create () in
  let monitor = tb.Testbed.monitor in
  List.concat_map
    (fun op ->
      List.concat_map
        (fun file_kb ->
          List.map
            (fun record_kb ->
              let r = Workloads.Iozone.run ~op ~file_kb ~record_kb in
              let n = price ~monitor Macro_vm.Normal r in
              let c = price ~monitor Macro_vm.(Confidential Exitful) r in
              let l = price ~monitor Macro_vm.(Confidential Exitless) r in
              let mb_s cycles =
                float_of_int file_kb /. 1024. /. (cycles /. clock_hz)
              in
              {
                op;
                file_kb;
                record_kb;
                normal_mb_s = mb_s n;
                cvm_mb_s = mb_s c;
                overhead_pct = (c -. n) /. n *. 100.;
                cvm_exitless_mb_s = mb_s l;
              })
            Workloads.Iozone.record_sizes_kb)
        Workloads.Iozone.file_sizes_kb)
    [ Workloads.Iozone.Write; Workloads.Iozone.Read ]

let max_overhead points =
  List.fold_left (fun acc p -> max acc p.overhead_pct) 0. points

let small_file_max_overhead points =
  List.fold_left
    (fun acc p ->
      if p.file_kb <= 16384 then max acc p.overhead_pct else acc)
    0. points
