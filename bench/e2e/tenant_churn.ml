module Gprog = Guest.Gprog
module Kvm = Hypervisor.Kvm
module Monitor = Zion.Monitor
module Prng = Workloads.Prng

let wave = 8
let harts = [ 0; 1; 2; 3 ]

(* A default testbed runs out of host memory for shared maps after about
   900 tenants (the hypervisor never tears a VM down on the host side),
   so a pass is two epochs, each on a fresh testbed. *)
let epochs = 2
let full_waves = 38
let normal_vms = 64
let quantum = Platform.Testbed.quantum_cycles
let first_page = 0x100000L

let image pages =
  [ (Platform.Testbed.guest_entry,
     Riscv.Asm.program
       (Gprog.touch_pages ~start_gpa:first_page ~pages @ Gprog.shutdown)) ]

let prepare ~seed ~scale =
  let waves = Workload.sized ~scale full_waves in
  let rng = Prng.create ~seed:(Int64.of_int seed) in
  (* pages.(e).(w).(i): tenant i of wave w in epoch e, 64 to 192 pages
     in pairs summing to 256. Every wave asks the 8 MiB pool for the same
     4 MiB, so no seed can push it into an expansion. *)
  let pages =
    Array.init epochs (fun _ ->
        Array.init waves (fun _ ->
            let counts =
              Array.concat
                (List.init (wave / 2) (fun _ ->
                     let n = 64 + Prng.int_below rng 129 in
                     [| n; 256 - n |]))
            in
            Workload.shuffle rng counts;
            counts))
  in
  let sum a = Array.fold_left ( + ) 0 a in
  let total = sum (Array.map (fun e -> sum (Array.map sum e)) pages) in
  let normal_pages =
    Array.sub (Array.concat (Array.to_list pages.(0)))
      0 (min normal_vms (waves * wave))
  in
  let run_epoch obs ep =
    let tb = Obs.testbed obs in
    let mon = tb.Platform.Testbed.monitor in
    let faults () = List.length (Monitor.fault_log mon) in
    Obs.measure obs tb (fun () ->
        let before = faults () in
        Array.iteri
          (fun w counts ->
            Obs.set_op obs ((ep * waves) + w);
            let sched = Hypervisor.Sched.create tb.Platform.Testbed.kvm ~quantum in
            let tenants =
              Array.to_list
                (Array.map
                   (fun n ->
                     match Obs.create_cvm obs tb ~image:(image n) with
                     | Ok h ->
                         Hypervisor.Sched.add sched h;
                         Some (h, n)
                     | Error e ->
                         Obs.fail obs ~ops:n ("create: " ^ e);
                         None)
                   counts)
              |> List.filter_map Fun.id
            in
            let outcomes = Obs.run_wave obs sched ~harts in
            List.iter
              (fun (h, n) ->
                if List.assoc (Kvm.cvm_id h) outcomes <> Kvm.C_shutdown then
                  Obs.fail obs ~ops:n "tenant did not shut down"
                else
                  match Obs.destroy_cvm obs tb h with
                  | Ok () -> ()
                  | Error e ->
                      Obs.fail obs ~ops:n
                        ("destroy: " ^ Zion.Ecall.error_to_string e))
              tenants)
          pages.(ep);
        let n = faults () - before in
        List.iteri
          (fun i (_, cycles) -> if i < n then Obs.sample obs cycles)
          (Monitor.fault_log mon))
  in
  let run_normal obs =
    let tb = Obs.testbed obs in
    let vms =
      Array.map
        (fun n ->
          match Obs.create_nvm obs tb ~image:(image n) with
          | Ok vm -> Some vm
          | Error e ->
              Obs.fail obs ~ops:n ("create: " ^ e);
              None)
        normal_pages
    in
    Obs.measure obs tb (fun () ->
        Array.iteri
          (fun i vm ->
            Obs.set_op obs i;
            Option.iter
              (fun vm ->
                if not (Obs.run_to_shutdown obs tb (Obs.Nvm vm) ~quantum ~after_slice:ignore)
                then Obs.fail obs ~ops:normal_pages.(i) "normal VM stopped")
              vm)
          vms)
  in
  fun arm obs ->
    match arm with
    | Workload.Cvm ->
        for ep = 0 to epochs - 1 do run_epoch obs ep done;
        total
    | Workload.Normal ->
        run_normal obs;
        Array.fold_left ( + ) 0 normal_pages

let workload =
  { Workload.name = "tenant_churn"; op = "guest page fault served"; prepare }
