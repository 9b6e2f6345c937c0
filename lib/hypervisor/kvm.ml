open Riscv

type expand_policy =
  | Expand_honest
  | Expand_deny
  | Expand_delay of int
  | Expand_short

type io_binding = {
  io_guest : Virtio_ring.guest;
  io_host : Virtio_ring.host;
}

type t = {
  machine : Machine.t;
  monitor : Zion.Monitor.t;
  mem : Host_mem.t;
  devices : Mmio_emul.t;
  cost : Cost.t;
  mutable io_bindings : (int * io_binding) list;  (* cvm id -> ring *)
  mutable nvm_faults : int;
  mutable mmio_serviced : int;
  mutable expansions : int;
  mutable expand_stalls : int;
  mutable expand_policy : expand_policy;
  mutable next_nvm_id : int;
  mutable backoff_rng : int64;
      (* [Splitmix.chained] state for backoff jitter; seeded per
         instance so a fleet of tenants desynchronises deterministically *)
}

let kernel_reserve = 0x100_0000L (* 16 MiB host kernel image *)

(* Distinct seed per hypervisor instance: O(100) tenants created from
   the same harness must not retry expansion in lockstep. *)
let instance_counter = ref 0

let create ~machine ~monitor ?(disk_sectors = 262144) () =
  let bus = machine.Machine.bus in
  let base = Int64.add Bus.dram_base kernel_reserve in
  let size = Int64.sub (Bus.dram_size bus) kernel_reserve in
  let devices = Mmio_emul.create ~bus ~disk_sectors in
  Mmio_emul.set_trace devices (Zion.Monitor.trace monitor);
  {
    machine;
    monitor;
    mem = Host_mem.create ~base ~size;
    devices;
    cost = machine.Machine.cost;
    io_bindings = [];
    nvm_faults = 0;
    mmio_serviced = 0;
    expansions = 0;
    expand_stalls = 0;
    expand_policy = Expand_honest;
    next_nvm_id = 1;
    backoff_rng =
      (incr instance_counter;
       Int64.of_int (!instance_counter * 0x2545F491));
  }

let set_expand_policy t p = t.expand_policy <- p

let machine t = t.machine
let monitor t = t.monitor
let trace t = Zion.Monitor.trace t.monitor
let obs t = Metrics.Trace.is_enabled (trace t)
let host_mem t = t.mem
let devices t = t.devices
let ledger t = t.machine.Machine.ledger
let charge t cat cycles = Metrics.Ledger.charge (ledger t) cat cycles

let block_size = Zion.Layout.default_block_size

let donate_secure_pool t ~mib =
  let bytes = Int64.mul (Int64.of_int mib) 0x100000L in
  let npages = Int64.to_int (Int64.div bytes 4096L) in
  match Host_mem.alloc_pages t.mem ~align:bytes npages with
  | None -> Error "not enough contiguous host memory for the pool"
  | Some base -> begin
      match
        Zion.Monitor.register_secure_region t.monitor ~base ~size:bytes
      with
      | Ok _ -> Ok ()
      | Error e -> Error (Zion.Ecall.error_to_string e)
    end

(* ---------- normal VMs ---------- *)

type nvm = {
  nid : int;
  spt : Zion.Spt.t;
  nvm_shared : Shared_map.t;
      (** normal VMs use the same >=1 GiB window for device buffers *)
  sv : Zion.Vcpu.secure;
  mutable alive : bool;
  hgatp_seen : (int, int64) Hashtbl.t;
      (** hart id -> hgatp last installed for this VM there; resume only
          fences the VMID when the value changes (epoch bump), so the
          steady state pays no invalidation at all *)
}

type normal_exit = N_timer | N_shutdown | N_limit | N_error of string

let create_normal_vm t ~entry_pc ~image =
  match Host_mem.alloc_pages t.mem ~align:0x4000L 4 with
  | None -> Error "out of host memory for stage-2 root"
  | Some root -> (
      let spt =
        Zion.Spt.create ~bus:t.machine.Machine.bus ~root
          ~alloc_table_page:(fun () -> Host_mem.alloc_pages t.mem 1)
      in
      match Shared_map.create ~bus:t.machine.Machine.bus t.mem with
      | Error e -> Error e
      | Ok nvm_shared ->
      match
        Zion.Spt.install_shared_root spt
          ~is_secure:(fun _ -> false)
          ~table_pa:(Shared_map.root nvm_shared)
      with
      | Error e -> Error e
      | Ok () ->
      let nvm =
        {
          nid = t.next_nvm_id;
          spt;
          nvm_shared;
          sv = Zion.Vcpu.fresh_secure ~entry_pc;
          alive = true;
          hgatp_seen = Hashtbl.create 4;
        }
      in
      t.next_nvm_id <- t.next_nvm_id + 1;
      (* Eagerly populate the image pages. *)
      let load (gpa, data) =
        let len = String.length data in
        let npages = (len + 4095) / 4096 in
        let rec go i =
          if i >= npages then Ok ()
          else begin
            let page_gpa = Int64.add gpa (Int64.of_int (i * 4096)) in
            match Host_mem.alloc_pages t.mem 1 with
            | None -> Error "out of host memory for guest image"
            | Some pa -> begin
                Bus.zero_range t.machine.Machine.bus pa 4096;
                match
                  Zion.Spt.map_private nvm.spt ~gpa:page_gpa ~pa
                    ~writable:true
                with
                | Error e -> Error e
                | Ok () ->
                    Bus.write_bytes t.machine.Machine.bus pa
                      (String.sub data (i * 4096)
                         (min 4096 (len - (i * 4096))));
                    go (i + 1)
              end
          end
        in
        go 0
      in
      let rec load_all = function
        | [] -> Ok nvm
        | chunk :: rest -> begin
            match load chunk with Error e -> Error e | Ok () -> load_all rest
          end
      in
      load_all image)

let handle_nvm_fault t nvm gpa =
  let page_gpa = Xword.align_down gpa 4096L in
  if Zion.Layout.is_shared_gpa page_gpa then begin
    (* device-buffer window: backed like any other guest RAM, but kept
       in the hypervisor's subtree so the layout matches the CVM case *)
    match Shared_map.map_fresh nvm.nvm_shared ~gpa:page_gpa with
    | Ok _ ->
        charge t "kvm_fault" (Cost.kvm_fault t.cost - t.cost.Cost.trap_entry);
        t.nvm_faults <- t.nvm_faults + 1;
        Ok ()
    | Error e -> Error e
  end
  else
  match Host_mem.alloc_pages t.mem 1 with
  | None -> Error "host out of memory"
  | Some pa -> begin
      Bus.zero_range t.machine.Machine.bus pa 4096;
      match Zion.Spt.map_private nvm.spt ~gpa:page_gpa ~pa ~writable:true with
      | Error e -> Error e
      | Ok () ->
          charge t "kvm_fault" (Cost.kvm_fault t.cost - t.cost.Cost.trap_entry);
          t.nvm_faults <- t.nvm_faults + 1;
          Ok ()
    end

(* Resume a normal VM's guest after an HS-level trap. *)
let resume_nvm t (hart : Hart.t) ~skip =
  let csr = hart.Hart.csr in
  hart.Hart.mode <- Priv.VS;
  hart.Hart.pc <- (if skip then Int64.add csr.Csr.sepc 4L else csr.Csr.sepc);
  charge t "xret" t.cost.Cost.xret

let handle_nvm_sbi t (hart : Hart.t) =
  let a7 = Hart.get_reg hart 17 and a0 = Hart.get_reg hart 10 in
  if a7 = Zion.Ecall.sbi_legacy_putchar then begin
    Bus.write t.machine.Machine.bus Bus.uart_base 1 (Int64.logand a0 0xFFL);
    Hart.set_reg hart 10 0L;
    `Resume
  end
  else if a7 = Zion.Ecall.sbi_legacy_shutdown then `Shutdown
  else begin
    Hart.set_reg hart 10 (Zion.Ecall.error_code Zion.Ecall.Not_found);
    `Resume
  end

let run_normal_vm t nvm ~hart:hart_id ~max_steps =
  if not nvm.alive then N_error "vm is dead"
  else begin
    let hart = t.machine.Machine.harts.(hart_id) in
    (* Devices resolve guest addresses through this VM's tables. *)
    Mmio_emul.set_translate t.devices (fun gpa ->
        if Zion.Layout.is_shared_gpa gpa then
          Shared_map.lookup nvm.nvm_shared ~gpa
        else Zion.Spt.lookup nvm.spt ~gpa);
    (* Host-side world switch into the guest: normal KVM entry. *)
    Zion.Deleg_policy.apply_normal hart;
    let vmid = 1000 + nvm.nid in
    let hgatp = Sv39.hgatp_of ~vmid ~root:(Zion.Spt.root nvm.spt) in
    hart.Hart.csr.Csr.hgatp <- hgatp;
    (* Epoch-bump invalidation instead of fencing every resume: the
       VMID is fenced on this hart only the first time this VM lands
       there or after its stage-2 root changed — whatever the retained
       entries under this VMID once meant, they are gone before any
       guest access can use them. *)
    if Hashtbl.find_opt nvm.hgatp_seen hart_id <> Some hgatp then begin
      Hart.fence hart (fun tlb -> Tlb.flush_vmid tlb vmid);
      charge t "nvm_tlb_fence" t.cost.Cost.tlb_vmid_flush;
      Hashtbl.replace nvm.hgatp_seen hart_id hgatp
    end;
    Zion.Vcpu.restore_to_hart nvm.sv hart;
    hart.Hart.mode <- Priv.VS;
    hart.Hart.wfi_stalled <- false;
    charge t "nvm_entry" (t.cost.Cost.kvm_restore + t.cost.Cost.xret);
    let save_back () =
      Zion.Vcpu.save_from_hart hart nvm.sv;
      if hart.Hart.mode <> Priv.VS && hart.Hart.mode <> Priv.VU then begin
        (* exited through a trap: resume point is in sepc or mepc *)
        let csr = hart.Hart.csr in
        nvm.sv.Zion.Vcpu.pc <-
          (if hart.Hart.mode = Priv.M then csr.Csr.mepc else csr.Csr.sepc)
      end;
      hart.Hart.mode <- Priv.HS
    in
    let rec loop steps =
      if steps >= max_steps then begin
        save_back ();
        N_limit
      end
      else begin
        Machine.sync_time t.machine;
        Exec.step hart;
        match hart.Hart.mode with
        | Priv.VS | Priv.VU -> loop (steps + 1)
        | Priv.HS -> handle_hs_trap steps
        | Priv.M ->
            (* Timer interrupts land in M (mideleg cannot delegate MTI). *)
            let cause = hart.Hart.csr.Csr.mcause in
            if Int64.compare cause 0L < 0 then begin
              charge t "hs_timer_tick"
                (t.cost.Cost.hs_timer_tick - t.cost.Cost.trap_entry);
              save_back ();
              N_timer
            end
            else begin
              save_back ();
              N_error
                (Printf.sprintf "unexpected M trap: %Ld"
                   hart.Hart.csr.Csr.mcause)
            end
        | Priv.U -> loop (steps + 1)
      end
    and handle_hs_trap steps =
      let csr = hart.Hart.csr in
      let code = Int64.to_int (Int64.logand csr.Csr.scause 0xFFL) in
      let is_interrupt = Int64.compare csr.Csr.scause 0L < 0 in
      if is_interrupt then begin
        charge t "hs_timer_tick"
          (t.cost.Cost.hs_timer_tick - t.cost.Cost.trap_entry);
        save_back ();
        N_timer
      end
      else begin
        match Cause.exception_of_code code with
        | Some Cause.Ecall_from_vs -> begin
            match handle_nvm_sbi t hart with
            | `Resume ->
                resume_nvm t hart ~skip:true;
                loop (steps + 1)
            | `Shutdown ->
                nvm.alive <- false;
                save_back ();
                N_shutdown
          end
        | Some
            (Cause.Load_guest_page_fault | Cause.Store_guest_page_fault
            | Cause.Instr_guest_page_fault) ->
            let gpa =
              Int64.logor
                (Int64.shift_left csr.Csr.htval 2)
                (Int64.logand csr.Csr.stval 3L)
            in
            if Zion.Layout.in_virtio_window gpa then begin
              (* Direct MMIO emulation in HS: the 5,000-cycle path. *)
              match
                Zion.Vcpu.decode_mmio hart.Hart.regs ~htinst:csr.Csr.htinst
                  ~gpa
              with
              | Error e ->
                  save_back ();
                  N_error e
              | Ok mmio ->
                  let result = Mmio_emul.handle t.devices mmio in
                  charge t "hs_mmio"
                    (t.cost.Cost.hs_mmio_exit - t.cost.Cost.trap_entry);
                  t.mmio_serviced <- t.mmio_serviced + 1;
                  if not mmio.Zion.Vcpu.mmio_write then
                    Hart.set_reg hart mmio.Zion.Vcpu.mmio_reg result;
                  resume_nvm t hart ~skip:true;
                  loop (steps + 1)
            end
            else begin
              match handle_nvm_fault t nvm gpa with
              | Ok () ->
                  resume_nvm t hart ~skip:false;
                  loop (steps + 1)
              | Error e ->
                  save_back ();
                  N_error e
            end
        | Some e ->
            save_back ();
            N_error (Cause.to_string (Cause.Exception e))
        | None ->
            save_back ();
            N_error "unknown scause"
      end
    in
    loop 0
  end

let nvm_fault_count t = t.nvm_faults

(* ---------- confidential VMs ---------- *)

type cvm_handle = { cid : int; shared : Shared_map.t }

let cvm_id h = h.cid
let cvm_shared_map h = h.shared

let create_cvm_guest t ~entry_pc ~image =
  match Zion.Monitor.create_cvm t.monitor ~nvcpus:1 ~entry_pc with
  | Error e -> Error (Zion.Ecall.error_to_string e)
  | Ok cid ->
      (* Once the CVM exists inside the SM it holds secure blocks; any
         failure on the remaining setup steps must tear it down again
         or the pool leaks a half-built guest. *)
      let abort e =
        ignore
          (Zion.Monitor.destroy_cvm t.monitor ~cvm:cid
            : (unit, Zion.Ecall.error) result);
        Error e
      in
      let rec load = function
        | [] -> Ok ()
        | (gpa, data) :: rest -> begin
            match Zion.Monitor.load_image t.monitor ~cvm:cid ~gpa data with
            | Ok () -> load rest
            | Error e -> Error (Zion.Ecall.error_to_string e)
          end
      in
      (match load image with
      | Error e -> abort e
      | Ok () -> begin
          match Zion.Monitor.finalize_cvm t.monitor ~cvm:cid with
          | Error e -> abort (Zion.Ecall.error_to_string e)
          | Ok _measurement -> begin
              match Shared_map.create ~bus:t.machine.Machine.bus t.mem with
              | Error e -> abort e
              | Ok shared -> begin
                  match
                    Zion.Monitor.install_shared t.monitor ~cvm:cid
                      ~table_pa:(Shared_map.root shared)
                  with
                  | Error e -> abort (Zion.Ecall.error_to_string e)
                  | Ok () ->
                      (* Pre-map the SWIOTLB window (descriptor page +
                         bounce slots), as the guest kernel does at
                         boot, so device DMA never hits an unmapped
                         bounce page. *)
                      let premap_err = ref None in
                      for i = 0 to Guest.Swiotlb.slots do
                        let gpa =
                          Int64.add Guest.Swiotlb.base
                            (Int64.of_int (i * Guest.Swiotlb.slot_size))
                        in
                        match Shared_map.map_fresh shared ~gpa with
                        | Ok _ -> ()
                        | Error e -> premap_err := Some e
                      done;
                      (match !premap_err with
                      | Some e -> abort e
                      | None ->
                          Mmio_emul.set_translate t.devices (fun gpa ->
                              Shared_map.lookup shared ~gpa);
                          Ok { cid; shared })
                end
            end
        end)

type cvm_outcome = C_timer | C_shutdown | C_limit | C_denied | C_error of string

(* How the hypervisor answers [Exit_need_memory]. The non-honest
   policies model a hostile or broken host for the fault-injection
   harness: the registration is silently skipped (deny), skipped for
   the first [n] requests (delay), or short-changed by a block. The
   SM survives all of them — the driver below just retries with
   backoff and eventually gives up. *)

let expand_pool t bytes =
  let round_up b =
    Int64.mul
      (Int64.div (Int64.add b (Int64.sub block_size 1L)) block_size)
      block_size
  in
  let effective =
    match t.expand_policy with
    | Expand_honest -> Some (round_up bytes)
    | Expand_deny -> None
    | Expand_delay n ->
        if n > 0 then begin
          t.expand_policy <- Expand_delay (n - 1);
          None
        end
        else begin
          t.expand_policy <- Expand_honest;
          Some (round_up bytes)
        end
    | Expand_short ->
        let want = Int64.sub (round_up bytes) block_size in
        if Int64.compare want 0L <= 0 then None else Some want
  in
  match effective with
  | None ->
      (* Pretend to comply without registering anything. *)
      if obs t then
        Metrics.Registry.inc
          (Zion.Monitor.registry t.monitor)
          "pool.expand_refused";
      Ok ()
  | Some bytes ->
  let npages = Int64.to_int (Int64.div bytes 4096L) in
  match Host_mem.alloc_pages t.mem ~align:block_size npages with
  | None -> Error "host cannot expand the secure pool"
  | Some base -> begin
      let observing = obs t in
      if observing then
        Metrics.Trace.span_begin (trace t)
          ~args:[ ("bytes", Printf.sprintf "0x%Lx" bytes) ]
          "hyp.expand_pool";
      charge t "expand_host_work" t.cost.Cost.expand_host_work;
      t.expansions <- t.expansions + 1;
      let r =
        match
          Zion.Monitor.register_secure_region t.monitor ~base ~size:bytes
        with
        | Ok _ -> Ok ()
        | Error e -> Error (Zion.Ecall.error_to_string e)
      in
      if observing then begin
        Metrics.Trace.span_end (trace t) "hyp.expand_pool";
        Metrics.Registry.inc
          (Zion.Monitor.registry t.monitor)
          "pool.expansions"
      end;
      r
    end

let reply_mmio t h mmio result =
  if (Zion.Monitor.config t.monitor).Zion.Monitor.shared_vcpu then begin
    match Zion.Monitor.shared_vcpu_of t.monitor ~cvm:h.cid ~vcpu:0 with
    | None -> Error "no shared vcpu"
    | Some sh ->
        sh.Zion.Vcpu.s_data <- result;
        sh.Zion.Vcpu.s_pc_advance <- 4L;
        Ok ()
  end
  else if mmio.Zion.Vcpu.mmio_write then Ok ()
  else begin
    match
      Zion.Monitor.set_vcpu_reg t.monitor ~cvm:h.cid ~vcpu:0
        ~reg:mmio.Zion.Vcpu.mmio_reg result
    with
    | Ok () -> Ok ()
    | Error e -> Error (Zion.Ecall.error_to_string e)
  end

(* ---------- exitless I/O ---------- *)

let ring_gpa = Guest.Swiotlb.ring_gpa

let exitless_guest t h =
  match List.assoc_opt h.cid t.io_bindings with
  | Some b -> Some b.io_guest
  | None -> None

let exitless_host t h =
  match List.assoc_opt h.cid t.io_bindings with
  | Some b -> Some b.io_host
  | None -> None

let exitless_active t h =
  match List.assoc_opt h.cid t.io_bindings with
  | Some b -> Virtio_ring.host_active b.io_host
  | None -> false

let enable_exitless_io t h =
  if List.mem_assoc h.cid t.io_bindings then
    Error "exitless ring already enabled for this CVM"
  else begin
    let mapped =
      match Shared_map.lookup h.shared ~gpa:ring_gpa with
      | Some _ -> Ok ()
      | None -> (
          match Shared_map.map_fresh h.shared ~gpa:ring_gpa with
          | Ok _ -> Ok ()
          | Error e -> Error e)
    in
    match mapped with
    | Error e -> Error e
    | Ok () ->
        let ctx =
          Virtio_ring.make_ctx ~bus:t.machine.Machine.bus
            ~translate:(fun gpa -> Shared_map.lookup h.shared ~gpa)
            ~secure:(Zion.Secmem.contains (Zion.Monitor.secmem t.monitor))
            ~registry:(Zion.Monitor.registry t.monitor)
            ~cvm:h.cid ~cost:t.cost
            ~charge:(fun cat cycles -> charge t cat cycles)
        in
        Result.map
          (fun (io_guest, io_host) ->
            t.io_bindings <- (h.cid, { io_guest; io_host }) :: t.io_bindings;
            io_guest)
          (Virtio_ring.create_pair ctx)
  end

(* Tear the device association down — not the CVM. The host side stops
   polling, the guest side falls back to exitful kicks (releasing its
   bounce slots exactly once), and the ring page leaves the shared
   subtree; a future ring starts on a page zeroed by DMA. *)
let disable_exitless_io t h =
  match List.assoc_opt h.cid t.io_bindings with
  | None -> ()
  | Some b ->
      Virtio_ring.retire b.io_host;
      Virtio_ring.force_fallback b.io_guest;
      Shared_map.unmap h.shared ~gpa:ring_gpa;
      t.io_bindings <- List.remove_assoc h.cid t.io_bindings

(* Host-side polling service for one CVM's ring. The device translate
   hook is per-CVM state, so install it before draining. *)
let service_exitless t h =
  match List.assoc_opt h.cid t.io_bindings with
  | None -> 0
  | Some b ->
      if Virtio_ring.host_active b.io_host then begin
        Mmio_emul.set_translate t.devices (fun gpa ->
            Shared_map.lookup h.shared ~gpa);
        Mmio_emul.service_ring t.devices b.io_host
      end
      else 0

(* Guest-side consume with the degradation policy attached: a ring
   that falls back (strikes exhausted or watchdog stall) is quarantined
   as a device association on the spot. *)
let exitless_poll t h =
  match List.assoc_opt h.cid t.io_bindings with
  | None -> (0, Virtio_ring.V_ok)
  | Some b ->
      let n, verdict = Virtio_ring.consume b.io_guest in
      if Virtio_ring.guest_mode b.io_guest = Virtio_ring.Fallen_back then
        disable_exitless_io t h;
      (n, verdict)

(* Exit_need_memory that an expansion did not actually satisfy (the
   pool gained no block) is retried at most this many times, charging
   an exponentially growing backoff, before the driver gives up. *)
let max_expand_stalls = 5
let expand_backoff_cycles = 1_000

(* Backoff for stall [n]: the exponential base plus a deterministic
   jitter drawn from this instance's PRNG, uniform in [0, base/2).
   Pure exponential backoff keeps a fleet of tenants that stalled on
   the same exhausted pool in lockstep — they all retry at the same
   tick and collide again; the jitter spreads the retries while the
   audited bound (base <= backoff < 1.5 * base per stall) keeps the
   total retry budget predictable. *)
let backoff_with_jitter t stalls =
  let base = expand_backoff_cycles lsl stalls in
  let state, bits = Splitmix.chained t.backoff_rng in
  t.backoff_rng <- state;
  base + Splitmix.below bits (base / 2)

let run_cvm t h ~hart ~max_steps =
  Mmio_emul.set_translate t.devices (fun gpa ->
      Shared_map.lookup h.shared ~gpa);
  (* Drain any exitless ring before entering the guest: completions
     published while the vCPU was out become visible on this entry
     without any doorbell. *)
  ignore (service_exitless t h : int);
  let rec drive budget stalls =
    if budget <= 0 then C_limit
    else begin
      match
        Zion.Monitor.run_vcpu t.monitor ~hart ~cvm:h.cid ~vcpu:0
          ~max_steps:budget
      with
      | Error Zion.Ecall.Denied -> C_denied
      | Error e -> C_error (Zion.Ecall.error_to_string e)
      | Ok reason -> begin
          match reason with
          | Zion.Monitor.Exit_timer ->
              (* The timer tick doubles as the host's ring-polling
                 beat: requests the guest published exitlessly are
                 serviced here, batched, with one used-index publish
                 per batch. *)
              ignore (service_exitless t h : int);
              C_timer
          | Zion.Monitor.Exit_limit -> C_limit
          | Zion.Monitor.Exit_shutdown -> C_shutdown
          | Zion.Monitor.Exit_error e -> C_error e
          | Zion.Monitor.Exit_mmio mmio -> begin
              let result = Mmio_emul.handle t.devices mmio in
              t.mmio_serviced <- t.mmio_serviced + 1;
              if obs t then begin
                Metrics.Trace.instant (trace t) ~cvm:h.cid
                  ~args:
                    [
                      ("gpa", Printf.sprintf "0x%Lx" mmio.Zion.Vcpu.mmio_gpa);
                      ("write", string_of_bool mmio.Zion.Vcpu.mmio_write);
                    ]
                  "hyp.mmio_service";
                Metrics.Registry.inc
                  (Zion.Monitor.registry t.monitor)
                  ~scope:(Metrics.Registry.Cvm h.cid) "mmio.serviced"
              end;
              match reply_mmio t h mmio result with
              | Ok () -> drive (budget - 1) 0
              | Error e -> C_error e
            end
          | Zion.Monitor.Exit_shared_fault gpa -> begin
              match
                Shared_map.map_fresh h.shared
                  ~gpa:(Xword.align_down gpa 4096L)
              with
              | Ok _ -> drive (budget - 1) 0
              | Error e -> C_error e
            end
          | Zion.Monitor.Exit_need_memory { bytes } -> begin
              let sm = Zion.Monitor.secmem t.monitor in
              let free_before = Zion.Secmem.free_blocks sm in
              match expand_pool t bytes with
              | Error e -> C_error e
              | Ok () ->
                  if Zion.Secmem.free_blocks sm > free_before then
                    drive (budget - 1) 0
                  else if stalls >= max_expand_stalls then
                    C_error "secure pool expansion stalled; giving up"
                  else begin
                    t.expand_stalls <- t.expand_stalls + 1;
                    charge t "expand_backoff" (backoff_with_jitter t stalls);
                    drive (budget - 1) (stalls + 1)
                  end
            end
        end
    end
  in
  drive max_steps 0

let run_cvm_to_completion ?(on_slice = ignore) t h ~hart ~quantum
    ~max_slices =
  let clint = Bus.clint t.machine.Machine.bus in
  let hart_obj = t.machine.Machine.harts.(hart) in
  hart_obj.Hart.csr.Csr.mie <-
    Int64.logor hart_obj.Hart.csr.Csr.mie (Int64.shift_left 1L 7);
  let rec go slice =
    if slice >= max_slices then C_limit
    else begin
      Clint.set_mtimecmp clint hart
        (Int64.of_int (Metrics.Ledger.now (ledger t) + quantum));
      match run_cvm t h ~hart ~max_steps:10_000_000 with
      | C_timer ->
          on_slice slice;
          go (slice + 1)
      | other -> other
    end
  in
  go 0

let mmio_exits_serviced t = t.mmio_serviced
let expansions t = t.expansions
let expand_stalls t = t.expand_stalls

(* ---------- attested inter-CVM channels (host relay) ---------- *)

(* The host's only legitimate role in a channel handshake: relay the
   SM-signed reports between the two tenants and refuse to proceed when
   either fails verification. The SM enforces this independently (the
   mapping only goes live at chan_accept, which re-checks measurements
   and epochs), so a hostile host skipping these checks gains nothing —
   but an honest driver models the verify-before-live discipline the
   guests themselves would follow. *)
let verify_peer_report r ~expect_meas ~expect_nonce =
  if not (Zion.Attest.verify_report r) then Error "report MAC invalid"
  else if not (Zion.Attest.constant_time_eq r.Zion.Attest.measurement expect_meas)
  then Error "peer measurement mismatch"
  else if not (Zion.Attest.constant_time_eq r.Zion.Attest.nonce expect_nonce)
  then Error "stale report (nonce mismatch)"
  else Ok ()

let connect_channel t ha hb ~nonce_a ~nonce_b =
  let mon = t.monitor in
  let a = cvm_id ha and b = cvm_id hb in
  let meas id = Zion.Monitor.cvm_measurement mon ~cvm:id in
  match (meas a, meas b) with
  | None, _ | _, None -> Error "connect_channel: unmeasured endpoint"
  | Some ma, Some mb -> (
      match Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:nonce_a ~expect:mb with
      | Error e ->
          Error ("connect_channel grant: " ^ Zion.Ecall.error_to_string e)
      | Ok (chan, rb) -> (
          match verify_peer_report rb ~expect_meas:mb ~expect_nonce:nonce_a with
          | Error why ->
              ignore (Zion.Monitor.chan_revoke mon ~chan ~cvm:a);
              Error ("connect_channel: B's report rejected: " ^ why)
          | Ok () -> (
              match
                Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:nonce_b
                  ~expect:ma
              with
              | Error e ->
                  ignore (Zion.Monitor.chan_revoke mon ~chan ~cvm:a);
                  Error
                    ("connect_channel accept: " ^ Zion.Ecall.error_to_string e)
              | Ok ra -> (
                  match
                    verify_peer_report ra ~expect_meas:ma ~expect_nonce:nonce_b
                  with
                  | Error why ->
                      ignore (Zion.Monitor.chan_revoke mon ~chan ~cvm:b);
                      Error ("connect_channel: A's report rejected: " ^ why)
                  | Ok () -> Ok chan))))
