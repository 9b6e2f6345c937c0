(* The short-path world switch: path costs, the guest SBI, stage-2
   faults, quarantine, [run_vcpu] and the SM-mediated register calls.
   The saved host contexts and the per-vCPU exit tables (pending MMIO,
   staged registers, expand retries) are written only here. *)

open Riscv
open Sm_state

let exit_reason_label = function
  | Exit_timer -> "timer"
  | Exit_limit -> "limit"
  | Exit_mmio _ -> "mmio"
  | Exit_shared_fault _ -> "shared_fault"
  | Exit_need_memory _ -> "need_memory"
  | Exit_shutdown -> "shutdown"
  | Exit_error _ -> "error"

(* ---------- path-cost compositions (see DESIGN.md §5) ---------- *)

type mmio_kind = No_mmio | Shared_mmio | Unshared_mmio

let long_path_entry_extra c =
  c.Cost.sechyp_trap + c.Cost.sechyp_xret + c.Cost.sechyp_ctx
  + c.Cost.sechyp_dispatch_entry + c.Cost.sechyp_barrier

let long_path_exit_extra c =
  c.Cost.sechyp_trap + c.Cost.sechyp_xret + c.Cost.sechyp_ctx
  + c.Cost.sechyp_dispatch_exit + c.Cost.sechyp_barrier

(* [pmp]/[tlb_flush] record the work the switch actually performed: a
   skipped PMP toggle (epoch cache) or a retained TLB costs nothing.
   The defaults describe the steady-state path of the configured mode,
   so [path_cost] stays honest in both. *)
let entry_cost ?(pmp = true) ?tlb_flush t ~mmio ~validated_ptes =
  let c = t.cost in
  let tlb_flush =
    match tlb_flush with
    | Some f -> f
    | None -> not t.cfg.tlb_retention
  in
  let base =
    c.Cost.trap_entry + c.Cost.gpr_all + c.Cost.csr_ctx_host
    + c.Cost.deleg_reprogram
    + (if pmp then c.Cost.pmp_toggle else 0)
    + c.Cost.hgatp_write
    + (if tlb_flush then c.Cost.tlb_full_flush else 0)
    + c.Cost.csr_ctx_guest + c.Cost.gpr_all
    + c.Cost.vcpu_integrity + c.Cost.irq_scan + c.Cost.timer_prog
    + c.Cost.xret
  in
  let mmio_extra =
    match mmio with
    | No_mmio -> 0
    | Shared_mmio ->
        (4 * (c.Cost.shared_item_load + c.Cost.check_after_load))
        + c.Cost.resume_merge
    | Unshared_mmio ->
        (2 * c.Cost.ecall_roundtrip)
        + (6 * c.Cost.secure_copy_item)
        + c.Cost.resume_merge
  in
  let long = if t.cfg.long_path then long_path_entry_extra c else 0 in
  base + mmio_extra + long + (validated_ptes * 2)

let exit_cost ?(pmp = true) ?tlb_flush t ~mmio =
  let c = t.cost in
  let tlb_flush =
    match tlb_flush with
    | Some f -> f
    | None -> not t.cfg.tlb_retention
  in
  let base =
    c.Cost.trap_entry + c.Cost.gpr_all + c.Cost.csr_ctx_guest
    + c.Cost.exit_cause_decode
    + (if pmp then c.Cost.pmp_toggle else 0)
    + c.Cost.hgatp_write
    + (if tlb_flush then c.Cost.tlb_full_flush else 0)
    + c.Cost.gpr_all + c.Cost.csr_ctx_host
    + c.Cost.deleg_reprogram + c.Cost.xret
  in
  let mmio_extra =
    match mmio with
    | No_mmio -> 0
    | Shared_mmio -> (4 * c.Cost.shared_item_store) + c.Cost.shared_classify
    | Unshared_mmio ->
        c.Cost.ecall_roundtrip
        + (8 * c.Cost.secure_copy_item)
        + c.Cost.unshared_validate
  in
  let long = if t.cfg.long_path then long_path_exit_extra c else 0 in
  base + mmio_extra + long

let fault_cost t stage =
  let c = t.cost in
  match stage with
  | Hier_alloc.Stage1 -> Cost.sm_fault_base c
  | Hier_alloc.Stage2 -> Cost.sm_fault_base c + c.Cost.block_grab
  | Hier_alloc.Stage3_retry ->
      Cost.sm_fault_base c + c.Cost.block_grab
      + exit_cost t ~mmio:No_mmio
      + entry_cost t ~mmio:No_mmio ~validated_ptes:0
      + c.Cost.expand_host_work + c.Cost.pmp_toggle + c.Cost.pmp_toggle
      + c.Cost.tlb_full_flush

type path = Entry_plain | Entry_with_mmio | Exit_plain | Exit_with_mmio

let path_cost t path =
  let mmio_kind () =
    if t.cfg.shared_vcpu then Shared_mmio else Unshared_mmio
  in
  match path with
  | Entry_plain -> entry_cost t ~mmio:No_mmio ~validated_ptes:0
  | Entry_with_mmio -> entry_cost t ~mmio:(mmio_kind ()) ~validated_ptes:0
  | Exit_plain -> exit_cost t ~mmio:No_mmio
  | Exit_with_mmio -> exit_cost t ~mmio:(mmio_kind ())

(* ---------- quarantine ---------- *)

(* A host protocol violation: park the CVM in [Quarantined] (only
   destruction is accepted from there) and disown the hypervisor's
   shared subtree so the hostile mappings drop out of the CVM's
   guest-physical space. *)
let quarantine t cvm ~reason =
  if cvm.Cvm.state <> Cvm.Destroyed && cvm.Cvm.state <> Cvm.Quarantined
  then begin
    let jr =
      Journal.append t.journal
        (Journal.Op_quarantine { cvm = cvm.Cvm.id; reason })
    in
    cvm.Cvm.state <- Cvm.Quarantined;
    cvm.Cvm.quarantine_reason <- Some reason;
    Journal.checkpoint t.journal jr "parked";
    Spt.clear_shared_root cvm.Cvm.spt;
    (* The CVM will never legitimately run again, so no hart may keep
       translating its guest-physical space. *)
    shootdown_vmid t ~vmid:cvm.Cvm.id ~reason:"quarantine";
    (* A quarantined endpoint also forfeits its channels: the peer must
       not keep a window into a parked, possibly-hostile VM. *)
    Sm_chan.chan_sweep_for ~record:jr t cvm.Cvm.id
      ~reason:"endpoint quarantined";
    Metrics.Registry.inc t.registry "cvm.quarantined";
    if obs t then
      Metrics.Trace.instant t.trace ~cvm:cvm.Cvm.id
        ~args:[ ("reason", reason) ]
        "cvm.quarantine";
    Journal.mark_done t.journal jr
  end

(* ---------- guest SBI handling ---------- *)

(* The guest returns a private page to the SM: unmap, scrub, keep it for
   this CVM's future faults (ballooning-style). *)
let relinquish t cvm a0 =
  let gpa = Xword.align_down a0 4096L in
  if not (Layout.is_private_gpa gpa) then Error Ecall.Invalid_param
  else
    (* Learn the physical page before the first mutation so the intent
       can name it — recovery re-scrubs by address even when the mapping
       is already gone. *)
    match Spt.lookup cvm.Cvm.spt ~gpa with
    | None -> Error Ecall.Not_found
    | Some pa -> (
        let jr =
          Journal.append t.journal
            (Journal.Op_relinquish { cvm = cvm.Cvm.id; gpa; pa })
        in
        match Spt.unmap_private cvm.Cvm.spt ~gpa with
        | Error _ ->
            Journal.mark_done t.journal jr;
            Error Ecall.Not_found
        | Ok pa ->
            Journal.checkpoint t.journal jr "unmapped";
            scrub t pa 4096L;
            charge t "sm_scrub" t.cost.Cost.page_scrub;
            (* The guest VAs aliasing this page are unknown here (with
               VS-stage paging a VA need not equal the GPA), and other
               harts may retain the translation too: shoot down by
               physical page, scoped to this CVM, on every hart. *)
            fence_all t (fun tlb -> Tlb.flush_pa ~vmid:cvm.Cvm.id tlb pa);
            charge t "sm_shootdown"
              (Array.length t.machine.Machine.harts
              * t.cost.Cost.tlb_vmid_flush);
            Journal.checkpoint t.journal jr "scrubbed";
            pool_freed t cvm.Cvm.id pa;
            Journal.mark_done t.journal jr;
            Ok ())

type sbi_outcome = Resume | Stop of exit_reason

let handle_guest_ecall t cvm (hart : Hart.t) =
  let reg = Hart.get_reg hart in
  let a7 = reg 17 and a6 = reg 16 in
  let a0 = reg 10 and a1 = reg 11 and a2 = reg 12 in
  let ret ?(value = 0L) code =
    Hart.set_reg hart 10 code;
    Hart.set_reg hart 11 value;
    Resume
  in
  let ok ?value () = ret ?value 0L in
  let err e = ret (Ecall.error_code e) in
  if a7 = Ecall.sbi_legacy_putchar then begin
    Bus.write t.machine.Machine.bus Bus.uart_base 1 (Int64.logand a0 0xFFL);
    ok ()
  end
  else if a7 = Ecall.sbi_legacy_shutdown then Stop Exit_shutdown
  else if a7 = Ecall.ext_zion then begin
    if a6 = Ecall.fid_guest_putchar then begin
      Bus.write t.machine.Machine.bus Bus.uart_base 1 (Int64.logand a0 0xFFL);
      ok ()
    end
    else if a6 = Ecall.fid_guest_shutdown then Stop Exit_shutdown
    else if a6 = Ecall.fid_guest_random then ok ~value:(next_random t) ()
    else if a6 = Ecall.fid_guest_report then begin
      (* a0 = report buffer GPA, a1 = 32-byte nonce GPA *)
      match read_guest t cvm ~gpa:a1 32 with
      | None -> err Ecall.Invalid_param
      | Some nonce -> begin
          match cvm.Cvm.measurement with
          | None -> err Ecall.Bad_state
          | Some measurement ->
              let report =
                Attest.make_report ~cvm_id:cvm.Cvm.id ~epoch:cvm.Cvm.epoch
                  ~measurement ~nonce
              in
              let bytes = Attest.report_to_bytes report in
              if write_guest t cvm ~gpa:a0 bytes then
                ok ~value:(Int64.of_int (String.length bytes)) ()
              else err Ecall.Invalid_param
        end
    end
    else if a6 = Ecall.fid_guest_seal then begin
      (* a0 = source GPA, a1 = length, a2 = destination GPA. The sealed
         blob is bound to this CVM's measurement. *)
      let len = Int64.to_int a1 in
      if len <= 0 || len > 65536 then err Ecall.Invalid_param
      else begin
        match (cvm.Cvm.measurement, read_guest t cvm ~gpa:a0 len) with
        | None, _ -> err Ecall.Bad_state
        | _, None -> err Ecall.Invalid_param
        | Some measurement, Some data ->
            let blob = Attest.seal_data ~measurement data in
            charge t "sm_seal" (t.cost.Cost.page_scrub * ((len / 4096) + 1));
            if write_guest t cvm ~gpa:a2 blob then
              ok ~value:(Int64.of_int (String.length blob)) ()
            else err Ecall.Invalid_param
      end
    end
    else if a6 = Ecall.fid_guest_unseal then begin
      (* a0 = blob GPA, a1 = blob length, a2 = destination GPA. *)
      let len = Int64.to_int a1 in
      if len <= 0 || len > 131072 then err Ecall.Invalid_param
      else begin
        match (cvm.Cvm.measurement, read_guest t cvm ~gpa:a0 len) with
        | None, _ -> err Ecall.Bad_state
        | _, None -> err Ecall.Invalid_param
        | Some measurement, Some blob -> begin
            charge t "sm_seal" (t.cost.Cost.page_scrub * ((len / 4096) + 1));
            match Attest.unseal_data ~measurement blob with
            | Error _ -> err Ecall.Denied
            | Ok data ->
                if write_guest t cvm ~gpa:a2 data then
                  ok ~value:(Int64.of_int (String.length data)) ()
                else err Ecall.Invalid_param
          end
      end
    end
    else if a6 = Ecall.fid_guest_relinquish then begin
      match relinquish t cvm a0 with Ok () -> ok () | Error e -> err e
    end
    else if a6 = Ecall.fid_guest_chan_send then begin
      (* a0 = channel id, a1 = source GPA, a2 = length *)
      match
        Sm_chan.guest_send t cvm ~chan:(Int64.to_int a0) ~src:a1
          ~len:(Int64.to_int a2)
      with
      | Ok value -> ok ~value ()
      | Error e -> err e
    end
    else if a6 = Ecall.fid_guest_chan_recv then begin
      (* a0 = channel id, a1 = destination GPA, a2 = max length *)
      match
        Sm_chan.guest_recv t cvm ~chan:(Int64.to_int a0) ~dst:a1 ~max:a2
      with
      | Ok value -> ok ~value ()
      | Error e -> err e
    end
    else if a6 = Ecall.fid_guest_share || a6 = Ecall.fid_guest_unshare then
      (* The static split-page-table design needs no per-page work: the
         shared window is always backed by hypervisor mappings. *)
      ok ()
    else err Ecall.Not_found
  end
  else err Ecall.Not_found

(* ---------- world switch ---------- *)

let save_host_ctx t hart_id =
  let hart = t.machine.Machine.harts.(hart_id) in
  let h = t.host.(hart_id) in
  let csr = hart.Hart.csr in
  h.h_satp <- csr.Csr.satp;
  h.h_hgatp <- csr.Csr.hgatp;
  h.h_medeleg <- csr.Csr.medeleg;
  h.h_mideleg <- csr.Csr.mideleg;
  h.h_hedeleg <- csr.Csr.hedeleg;
  h.h_hideleg <- csr.Csr.hideleg;
  h.h_mode <- hart.Hart.mode;
  h.h_pc <- hart.Hart.pc

let restore_host_ctx t hart_id =
  let hart = t.machine.Machine.harts.(hart_id) in
  let h = t.host.(hart_id) in
  let csr = hart.Hart.csr in
  csr.Csr.satp <- h.h_satp;
  csr.Csr.hgatp <- h.h_hgatp;
  csr.Csr.medeleg <- h.h_medeleg;
  csr.Csr.mideleg <- h.h_mideleg;
  csr.Csr.hedeleg <- h.h_hedeleg;
  csr.Csr.hideleg <- h.h_hideleg;
  hart.Hart.mode <- h.h_mode;
  hart.Hart.pc <- h.h_pc;
  (* Every path that leaves CVM mode comes through here, so this is
     the single point where profiler samples stop being attributed to
     the guest. *)
  match t.profiler with
  | Some p -> Metrics.Profile.set_context p ~hart:hart_id ~cvm:(-1)
  | None -> ()

let world_switch_out t hart_id cvm vcpu_idx ~mmio_kind =
  let hart = t.machine.Machine.harts.(hart_id) in
  let sv = Cvm.vcpu cvm vcpu_idx in
  Vcpu.save_from_hart hart sv;
  (* When the exit came through a trap, the hart's pc already points at
     the M-mode vector; the guest's architectural resume point is mepc. *)
  if hart.Hart.mode = Priv.M then sv.Vcpu.pc <- hart.Hart.csr.Csr.mepc;
  let pmp_work = Pmp_guard.set_world t.guard hart ~cvm_open:false in
  restore_host_ctx t hart_id;
  (* With VMID-tagged retention the guest's entries stay cached across
     the switch — precise shootdowns keep them coherent — and the host
     never pays the refill walks. *)
  let flushed =
    if t.cfg.tlb_retention then false
    else begin
      Tlb.flush_all hart.Hart.tlb;
      true
    end
  in
  let cycles = exit_cost ~pmp:pmp_work ~tlb_flush:flushed t ~mmio:mmio_kind in
  (* Trap.take already charged trap_entry when the guest trapped. *)
  let observing = obs t in
  if observing then
    Metrics.Trace.span_begin t.trace ~hart:hart_id ~cvm:cvm.Cvm.id
      ~vcpu:vcpu_idx "cvm_exit";
  charge t "cvm_exit" (cycles - t.cost.Cost.trap_entry);
  if observing then begin
    Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:cvm.Cvm.id
      ~vcpu:vcpu_idx "cvm_exit";
    let scope = Metrics.Registry.Cvm cvm.Cvm.id in
    Metrics.Registry.inc t.registry ~scope "exits";
    Metrics.Registry.observe t.registry ~scope "exit_cycles" cycles;
    if flushed then Metrics.Registry.inc t.registry "tlb.full_flush"
  end;
  t.exit_hist <- cycles :: t.exit_hist;
  cvm.Cvm.exit_count <- cvm.Cvm.exit_count + 1;
  cvm.Cvm.state <- Cvm.Suspended;
  note_progress t cvm.Cvm.id;
  seal_vcpu t cvm vcpu_idx

(* Resume the guest after an SM-internal service (fault, SBI) without
   leaving CVM mode. [skip] advances past the trapping instruction. *)
let resume_guest t hart ~skip =
  let csr = hart.Hart.csr in
  let target_virt = Csr.get_mpv csr in
  let target_level = Csr.get_mpp csr in
  hart.Hart.mode <- Priv.of_level ~virt:target_virt target_level;
  hart.Hart.pc <-
    (if skip then Int64.add csr.Csr.mepc 4L else csr.Csr.mepc);
  charge t "xret" t.cost.Cost.xret

(* Handle a guest-page fault on a private GPA inside the SM.
   Returns [Ok stage] or the exit the fault escalates to. After a
   fault-driven exit the guest's pc was reset to the faulting
   instruction, so on re-entry the retry fault is taken with the
   after-expand stage accounting: [expand_retry] marks the vCPUs that
   exited with Need_memory. *)
type fault_outcome = Fault_served of Hier_alloc.stage | Fault_spurious

let handle_private_fault t cvm vcpu_idx gpa =
  let key = (cvm.Cvm.id, vcpu_idx) in
  let after_expand = Hashtbl.mem t.expand_retry key in
  let cache = Cvm.cache cvm vcpu_idx in
  let page_gpa = Xword.align_down gpa 4096L in
  (* Another vCPU may have mapped the page between the fault and our
     handling (or the fault was a stale-TLB artifact): just resume. *)
  if Spt.lookup cvm.Cvm.spt ~gpa:page_gpa <> None then Ok Fault_spurious
  else
  match provide_private_page t cvm cache ~gpa:page_gpa ~after_expand with
  | Ok (_, stage) ->
      Hashtbl.remove t.expand_retry key;
      Ok (Fault_served stage)
  | Error `Need_expand ->
      Hashtbl.replace t.expand_retry key ();
      Error (Exit_need_memory { bytes = Secmem.block_size t.sm })
  | Error (`Map_error e) -> Error (Exit_error e)

let record_fault t cvm stage =
  let cycles = fault_cost t stage in
  (* The architectural trap already charged trap_entry; the stage-3
     world-switch components are charged by the actual switch. *)
  let already =
    t.cost.Cost.trap_entry
    +
    match stage with
    | Hier_alloc.Stage3_retry ->
        exit_cost t ~mmio:No_mmio
        + entry_cost t ~mmio:No_mmio ~validated_ptes:0
        + t.cost.Cost.expand_host_work
    | Hier_alloc.Stage1 | Hier_alloc.Stage2 -> 0
  in
  charge t "sm_fault" (cycles - already);
  if obs t then begin
    let label = Hier_alloc.stage_to_string stage in
    Metrics.Trace.instant t.trace ~cvm:cvm.Cvm.id ("fault." ^ label);
    let scope = Metrics.Registry.Cvm cvm.Cvm.id in
    Metrics.Registry.inc t.registry ~scope ("faults." ^ label);
    Metrics.Registry.observe t.registry ~scope "fault_cycles" cycles
  end;
  t.faults <- (stage, cycles) :: t.faults;
  cvm.Cvm.fault_count <- cvm.Cvm.fault_count + 1;
  let s = cvm.Cvm.alloc_stats in
  match stage with
  | Hier_alloc.Stage1 -> s.Hier_alloc.stage1 <- s.Hier_alloc.stage1 + 1
  | Hier_alloc.Stage2 -> s.Hier_alloc.stage2 <- s.Hier_alloc.stage2 + 1
  | Hier_alloc.Stage3_retry -> s.Hier_alloc.stage3 <- s.Hier_alloc.stage3 + 1

let run_vcpu t ~hart:hart_id ~cvm:id ~vcpu:vcpu_idx ~max_steps =
  host_call t "run_vcpu" ~cvm:id (fun () ->
  if hart_id < 0 || hart_id >= Array.length t.machine.Machine.harts then
    Error Ecall.Invalid_param
  else if max_steps <= 0 then Error Ecall.Invalid_param
  else
  match found t.cvms id with
  | Error e -> Error e
  | Ok cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
      Error Ecall.Invalid_param
  | Ok cvm -> begin
      match cvm.Cvm.state with
      | Cvm.Quarantined -> Error Ecall.Quarantined
      | Cvm.Created | Cvm.Destroyed | Cvm.Running
      | Cvm.Migrating_out | Cvm.Migrating_in ->
          Error Ecall.Bad_state
      | Cvm.Runnable | Cvm.Suspended ->
        let entered = ref false in
        try
          if obs t then
            Metrics.Trace.span_begin t.trace ~hart:hart_id ~cvm:id
              ~vcpu:vcpu_idx "run_vcpu";
          let hart = t.machine.Machine.harts.(hart_id) in
          let sv = Cvm.vcpu cvm vcpu_idx in
          let sh = Cvm.shared_vcpu cvm vcpu_idx in
          let key = (id, vcpu_idx) in
          (* Absorb a pending MMIO reply before entering. *)
          let mmio_kind = ref No_mmio in
          let absorb_error = ref None in
          (match Hashtbl.find_opt t.pending_mmio key with
          | None -> ()
          | Some mmio ->
              Hashtbl.remove t.pending_mmio key;
              if t.cfg.shared_vcpu then begin
                mmio_kind := Shared_mmio;
                match Vcpu.absorb_mmio_result sh sv mmio with
                | Ok _ -> ()
                | Error e -> absorb_error := Some e
              end
              else begin
                mmio_kind := Unshared_mmio;
                (* Unshared path: apply the staged SET_REG value. *)
                (match Hashtbl.find_opt t.staged_reg key with
                | Some (reg, value) when reg = mmio.Vcpu.mmio_reg ->
                    if (not mmio.Vcpu.mmio_write) && reg <> 0 then
                      sv.Vcpu.regs.(reg) <- value
                | Some _ -> absorb_error := Some "SET_REG to wrong register"
                | None ->
                    if not mmio.Vcpu.mmio_write then
                      absorb_error := Some "missing SET_REG before resume");
                Hashtbl.remove t.staged_reg key;
                sv.Vcpu.pc <- Int64.add sv.Vcpu.pc 4L
              end);
          (match !absorb_error with
          | Some msg ->
              (* Check-after-Load rejected the reply: refuse to run and
                 quarantine — the hypervisor broke the exit protocol. *)
              if obs t then begin
                Metrics.Trace.instant t.trace ~hart:hart_id ~cvm:id
                  ~vcpu:vcpu_idx
                  ~args:[ ("reason", msg) ]
                  "check_after_load.reject";
                Metrics.Registry.inc t.registry
                  ~scope:(Metrics.Registry.Cvm id) "check_after_load.reject";
                Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
                  ~vcpu:vcpu_idx
                  ~args:[ ("exit", "denied") ]
                  "run_vcpu"
              end;
              quarantine t cvm ~reason:("check-after-load: " ^ msg);
              seal_all_vcpus t cvm;
              Error Ecall.Denied
          | None ->
              if obs t && !mmio_kind <> No_mmio then begin
                Metrics.Trace.instant t.trace ~hart:hart_id ~cvm:id
                  ~vcpu:vcpu_idx "check_after_load.accept";
                Metrics.Registry.inc t.registry
                  ~scope:(Metrics.Registry.Cvm id) "check_after_load.accept"
              end;
              (* --- CVM entry --- *)
              save_host_ctx t hart_id;
              entered := true;
              Deleg_policy.apply_cvm hart;
              let pmp_work =
                Pmp_guard.set_world t.guard hart ~cvm_open:true
              in
              hart.Hart.csr.Csr.hgatp <-
                Sv39.hgatp_of ~vmid:id ~root:(Spt.root cvm.Cvm.spt);
              let flushed =
                if t.cfg.tlb_retention then false
                else begin
                  Tlb.flush_all hart.Hart.tlb;
                  true
                end
              in
              let validated =
                if t.cfg.validate_shared_on_entry then
                  Spt.validate_shared cvm.Cvm.spt
                    ~is_secure:(Secmem.contains t.sm)
                else Ok 0
              in
              match validated with
              | Error msg ->
                  (* Hypervisor planted a hostile shared subtree: abort
                     the entry before any guest instruction runs, and
                     quarantine so the subtree is disowned. *)
                  restore_host_ctx t hart_id;
                  ignore (Pmp_guard.set_world t.guard hart ~cvm_open:false);
                  (* No guest instruction ran: only this CVM's (possibly
                     retained) entries could be suspect. *)
                  Hart.fence hart (fun tlb -> Tlb.flush_vmid tlb id);
                  if obs t then begin
                    Metrics.Trace.instant t.trace ~hart:hart_id ~cvm:id
                      ~vcpu:vcpu_idx "shared_subtree.reject";
                    Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
                      ~vcpu:vcpu_idx
                      ~args:[ ("exit", "denied") ]
                      "run_vcpu"
                  end;
                  quarantine t cvm ~reason:("hostile shared subtree: " ^ msg);
                  seal_all_vcpus t cvm;
                  Error Ecall.Denied
              | Ok validated -> begin
                let ec =
                  entry_cost ~pmp:pmp_work ~tlb_flush:flushed t
                    ~mmio:!mmio_kind ~validated_ptes:validated
                in
                let observing = obs t in
                if observing then
                  Metrics.Trace.span_begin t.trace ~hart:hart_id ~cvm:id
                    ~vcpu:vcpu_idx "cvm_entry";
                charge t "cvm_entry" ec;
                if observing then begin
                  Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
                    ~vcpu:vcpu_idx "cvm_entry";
                  let scope = Metrics.Registry.Cvm id in
                  Metrics.Registry.inc t.registry ~scope "entries";
                  Metrics.Registry.observe t.registry ~scope "entry_cycles" ec;
                  if flushed then
                    Metrics.Registry.inc t.registry "tlb.full_flush"
                end;
                t.entry_hist <- ec :: t.entry_hist;
                cvm.Cvm.entry_count <- cvm.Cvm.entry_count + 1;
                note_progress t id;
                (match t.profiler with
                | Some p -> Metrics.Profile.set_context p ~hart:hart_id ~cvm:id
                | None -> ());
                Vcpu.restore_to_hart sv hart;
                hart.Hart.mode <- Priv.VS;
                hart.Hart.wfi_stalled <- false;
                cvm.Cvm.state <- Cvm.Running;
                (* --- guest execution loop --- *)
                let finish ~mmio reason =
                  world_switch_out t hart_id cvm vcpu_idx ~mmio_kind:mmio;
                  if obs t then begin
                    let label = exit_reason_label reason in
                    Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
                      ~vcpu:vcpu_idx
                      ~args:[ ("exit", label) ]
                      "run_vcpu";
                    Metrics.Registry.inc t.registry
                      ~scope:(Metrics.Registry.Cvm id)
                      ("exit_reason." ^ label)
                  end;
                  Ok reason
                in
                let rec loop steps =
                  if steps >= max_steps then finish ~mmio:No_mmio Exit_limit
                  else begin
                    Machine.sync_time t.machine;
                    Exec.step hart;
                    if hart.Hart.mode <> Priv.M then loop (steps + 1)
                    else handle_m_trap steps
                  end
                and handle_m_trap steps =
                  let csr = hart.Hart.csr in
                  let cause = csr.Csr.mcause in
                  let is_interrupt = Int64.compare cause 0L < 0 in
                  let code = Int64.to_int (Int64.logand cause 0xFFL) in
                  if is_interrupt then
                    (* Timer or software interrupt for the host. *)
                    finish ~mmio:No_mmio Exit_timer
                  else begin
                    match Cause.exception_of_code code with
                    | Some Cause.Ecall_from_vs -> begin
                        match handle_guest_ecall t cvm hart with
                        | Resume ->
                            resume_guest t hart ~skip:true;
                            loop (steps + 1)
                        | Stop reason -> finish ~mmio:No_mmio reason
                      end
                    | Some
                        (Cause.Load_guest_page_fault
                        | Cause.Store_guest_page_fault
                        | Cause.Instr_guest_page_fault) ->
                        let gpa =
                          Int64.logor
                            (Int64.shift_left csr.Csr.mtval2 2)
                            (Int64.logand csr.Csr.mtval 3L)
                        in
                        if Layout.in_virtio_window gpa then begin
                          (* MMIO: decode from the recorded instruction,
                             expose via the shared vCPU, exit. *)
                          Vcpu.save_from_hart hart sv;
                          match
                            Vcpu.decode_mmio sv.Vcpu.regs ~htinst:csr.Csr.htinst
                              ~gpa
                          with
                          | Error e -> finish ~mmio:No_mmio (Exit_error e)
                          | Ok mmio ->
                              Hashtbl.replace t.pending_mmio key mmio;
                              let kind =
                                if t.cfg.shared_vcpu then begin
                                  ignore
                                    (Vcpu.expose_mmio sh mmio
                                       ~htinst:csr.Csr.htinst);
                                  Shared_mmio
                                end
                                else Unshared_mmio
                              in
                              finish ~mmio:kind (Exit_mmio mmio)
                        end
                        else if Layout.is_private_gpa gpa then begin
                          match handle_private_fault t cvm vcpu_idx gpa with
                          | Ok (Fault_served stage) ->
                              record_fault t cvm stage;
                              resume_guest t hart ~skip:false;
                              loop (steps + 1)
                          | Ok Fault_spurious ->
                              (* page is present; the retry will hit.
                                 Scope the shootdown to this CVM: with
                                 retention, another guest's entry for
                                 the same page index is still valid. *)
                              Hart.fence hart (fun tlb ->
                                  Tlb.flush_page ~vmid:id tlb
                                    hart.Hart.csr.Csr.mtval);
                              resume_guest t hart ~skip:false;
                              loop (steps + 1)
                          | Error (Exit_need_memory b) ->
                              (* The guest will re-fault after the pool
                                 expansion and take the stage-3 path. *)
                              finish ~mmio:No_mmio (Exit_need_memory b)
                          | Error reason -> finish ~mmio:No_mmio reason
                        end
                        else if Layout.is_shared_gpa gpa then
                          (* Shared-region fault: hypervisor's job. *)
                          finish ~mmio:No_mmio (Exit_shared_fault gpa)
                        else
                          (* Beyond both halves of the guest-physical
                             space: a wild guest access, not a mapping
                             request. *)
                          finish ~mmio:No_mmio
                            (Exit_error
                               (Printf.sprintf
                                  "guest access outside the GPA space: 0x%Lx"
                                  gpa))
                    | Some e ->
                        finish ~mmio:No_mmio
                          (Exit_error
                             (Printf.sprintf "unexpected guest trap: %s"
                                (Cause.to_string
                                   (Cause.Exception e))))
                    | None ->
                        finish ~mmio:No_mmio (Exit_error "unknown mcause")
                  end
                in
                loop 0
              end)
        with
        | Journal.Crashed as c ->
            (* The injected SM death: the hart's state is whatever the
               crash left (reboot wipes it), so no cleanup here — just
               let the reboot driver take over. *)
            raise c
        | e ->
          (* A fault inside the SM must never leave the hart in CVM
             mode with the PMP window open: restore the host world
             first, then quarantine — the CVM's state may be
             inconsistent, so it can only be destroyed from here. *)
          if !entered then begin
            let hart = t.machine.Machine.harts.(hart_id) in
            restore_host_ctx t hart_id;
            ignore (Pmp_guard.set_world t.guard hart ~cvm_open:false);
            (* Only this CVM's translations are suspect; the quarantine
               below shoots its VMID down on every hart anyway. *)
            Hart.fence hart (fun tlb -> Tlb.flush_vmid tlb cvm.Cvm.id)
          end;
          quarantine t cvm
            ~reason:("internal fault during run: " ^ Printexc.to_string e);
          seal_all_vcpus t cvm;
          if obs t then
            Metrics.Trace.span_end t.trace ~hart:hart_id ~cvm:id
              ~vcpu:vcpu_idx
              ~args:[ ("exit", "internal_fault") ]
              "run_vcpu";
          internal_fault t "run_vcpu" e
    end)

(* The SM-mediated register calls of the unshared mode: both need a
   pending MMIO exit on a usable CVM's valid vCPU. *)
let pending_exit t id vcpu_idx =
  match usable_cvm t id with
  | Error e -> Error e
  | Ok cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
      Error Ecall.Invalid_param
  | Ok _ -> (
      match Hashtbl.find t.pending_mmio (id, vcpu_idx) with
      | mmio -> Ok mmio
      | exception Not_found -> Error Ecall.No_pending_exit)

let get_vcpu_reg t ~cvm:id ~vcpu:vcpu_idx ~reg =
  host_call t "get_vcpu_reg" ~cvm:id (fun () ->
      match pending_exit t id vcpu_idx with
      | Error e -> Error e
      | Ok mmio ->
          charge t "sm_getreg"
            (t.cost.Cost.ecall_roundtrip + t.cost.Cost.secure_copy_item);
          (* Only the value the pending exit legitimately exposes — the
             store data, requested as register 0 — is readable. Every
             other register stays secret. *)
          if mmio.Vcpu.mmio_write && reg = 0 then Ok mmio.Vcpu.mmio_data
          else Error Ecall.Denied)

let set_vcpu_reg t ~cvm:id ~vcpu:vcpu_idx ~reg value =
  host_call t "set_vcpu_reg" ~cvm:id (fun () ->
      match pending_exit t id vcpu_idx with
      | Error e -> Error e
      | Ok mmio ->
          charge t "sm_setreg"
            (t.cost.Cost.ecall_roundtrip + t.cost.Cost.secure_copy_item);
          if mmio.Vcpu.mmio_write then Error Ecall.Denied
          else if reg <> mmio.Vcpu.mmio_reg then Error Ecall.Denied
          else begin
            Hashtbl.replace t.staged_reg (id, vcpu_idx) (reg, value);
            Ok ()
          end)

(* Destroy drops a dead CVM's exit rows; a reboot drops every volatile
   one, host contexts included. *)
let forget_exits t cvm =
  for v = 0 to Cvm.nvcpus cvm - 1 do
    Hashtbl.remove t.pending_mmio (cvm.Cvm.id, v);
    Hashtbl.remove t.staged_reg (cvm.Cvm.id, v);
    Hashtbl.remove t.expand_retry (cvm.Cvm.id, v)
  done

let forget_volatile t =
  Array.iteri (fun i _ -> t.host.(i) <- fresh_host_ctx ()) t.host;
  Hashtbl.reset t.pending_mmio;
  Hashtbl.reset t.expand_retry;
  Hashtbl.reset t.staged_reg

(* Recovery replay of a pending relinquish or quarantine record; see
   [Sm_recover]. *)
let replay t ~note ~fwd ~back (r : Journal.record) =
  match r.Journal.op with
  | Journal.Op_relinquish { cvm = id; gpa; pa } -> (
      match find_cvm t id with
      | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
          incr fwd;
          (match Spt.lookup cvm.Cvm.spt ~gpa with
          | Some pa' when pa' = pa ->
              ignore (Spt.unmap_private cvm.Cvm.spt ~gpa)
          | _ -> ());
          scrub t pa 4096L;
          Journal.checkpoint t.journal r "scrubbed";
          (* TLBs are empty after the reboot, so no shootdown is owed;
             just make sure the page lands in the freed pool exactly
             once. *)
          pool_freed t id pa;
          note
            (Printf.sprintf
               "relinquish #%d: CVM %d page 0x%Lx scrubbed and pooled"
               r.Journal.seq id pa)
      | _ -> incr back)
  | Journal.Op_quarantine { cvm = id; reason } -> (
      incr fwd;
      match find_cvm t id with
      | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
          if cvm.Cvm.state <> Cvm.Quarantined then
            Metrics.Registry.inc t.registry "cvm.quarantined";
          cvm.Cvm.state <- Cvm.Quarantined;
          cvm.Cvm.quarantine_reason <- Some reason;
          Spt.clear_shared_root cvm.Cvm.spt;
          Sm_chan.chan_sweep_for t id ~reason:"endpoint quarantined";
          note
            (Printf.sprintf "quarantine #%d: CVM %d re-parked"
               r.Journal.seq id)
      | _ -> ())
  | _ -> ()
