open Riscv

type config = {
  shared_vcpu : bool;
  long_path : bool;
  validate_shared_on_entry : bool;
  tlb_retention : bool;
}

let default_config =
  {
    shared_vcpu = true;
    long_path = false;
    validate_shared_on_entry = false;
    tlb_retention = false;
  }

type exit_reason =
  | Exit_timer
  | Exit_limit
  | Exit_mmio of Vcpu.mmio
  | Exit_shared_fault of int64
  | Exit_need_memory of { bytes : int64 }
  | Exit_shutdown
  | Exit_error of string

(* Saved Normal-mode context of one hart while a CVM occupies it. *)
type host_ctx = {
  mutable h_satp : int64;
  mutable h_hgatp : int64;
  mutable h_medeleg : int64;
  mutable h_mideleg : int64;
  mutable h_hedeleg : int64;
  mutable h_hideleg : int64;
  mutable h_mode : Priv.t;
  mutable h_pc : int64;
}

(* One end of a crash-safe migration session (see Migrate_proto). The
   record lives in the SM so it survives crashes of the untrusted
   courier endpoints: recovery re-derives everything from here. *)
type migration_role = Mig_out | Mig_in
type migration_phase = Mig_active | Mig_committed | Mig_aborted

type migration_session = {
  mg_role : migration_role;
  mutable mg_phase : migration_phase;
  mutable mg_cvm : int option;
  mutable mg_epoch : int;
  mutable mg_nonce : string;
      (* export nonce, fixed for the session's lifetime so recovery
         re-exports byte-identical chunks *)
  mutable mg_blob_tag : string;  (* SHA-256 of the sealed blob *)
  mutable mg_stalls : int;
      (* consecutive unacknowledged retransmits, maintained by the
         protocol endpoint; audited against the budget *)
  mg_budget : int;
}

(* One attested inter-CVM channel: a secure ring page the SM maps into
   both endpoints' private halves once each side has verified the
   other's attestation report. The record is the ownership ground truth
   for the ring page (channel pages never enter [page_owner]): the
   audit's channel section derives every invariant from here. *)
type chan_phase =
  | Chan_offered  (** granted, ring allocated, nothing mapped yet *)
  | Chan_established  (** both sides verified; ring live in both SPTs *)
  | Chan_revoked  (** torn down by an endpoint or an endpoint's death *)
  | Chan_degraded  (** torn down by the SM: strike budget exhausted *)

type channel = {
  ch_id : int;
  ch_a : int;  (** granting endpoint (owns the a→b half) *)
  ch_b : int;  (** accepting endpoint (owns the b→a half) *)
  mutable ch_phase : chan_phase;
  mutable ch_page : int64 option;
      (** ring page PA while the channel holds its block *)
  ch_gpa : int64;  (** slot GPA, identical in both private halves *)
  ch_epoch_a : int;
  ch_epoch_b : int;
      (** endpoint lifecycle epochs captured at the offer; [chan_accept]
          refuses if either endpoint has transitioned since — a stale
          pre-migration report cannot establish a channel *)
  mutable ch_seq_ab : int64;  (** last a→b seq delivered to b *)
  mutable ch_seq_ba : int64;  (** last b→a seq delivered to a *)
  mutable ch_strikes : int;
  mutable ch_reason : string option;
}

type t = {
  machine : Machine.t;
  cfg : config;
  cost : Cost.t;
  sm : Secmem.t;
  guard : Pmp_guard.t;
  trace : Metrics.Trace.t;
  registry : Metrics.Registry.t;
  cvms : (int, Cvm.t) Hashtbl.t;
  sessions : (string, migration_session) Hashtbl.t;
      (** keyed by "out:<id>" / "in:<id>" so one monitor can hold both
          ends of a loopback migration *)
  journal : Journal.t;
      (** write-ahead intent journal: every multi-step transition below
          records an intent before its first durable mutation, so
          [recover] can roll a crashed operation forward or back *)
  mutable next_cvm_id : int;
  channels : (int, channel) Hashtbl.t;
  mutable next_chan_id : int;
      (** channel ids double as slot indices in the channel GPA window,
          so they are never reused — recovery bumps past journaled ids *)
  host : host_ctx array;
  pending_mmio : (int * int, Vcpu.mmio) Hashtbl.t;
  expand_retry : (int * int, unit) Hashtbl.t;
      (** vCPUs whose next private fault is a stage-3 retry *)
  staged_reg : (int * int, int * int64) Hashtbl.t;
      (** SET_REG value awaiting Check-after-Load, unshared mode *)
  page_owner : (int64, int) Hashtbl.t;
      (** physical page -> CVM id: the exclusivity ground truth *)
  freed_pages : (int, int64 list ref) Hashtbl.t;
      (** per-CVM pages returned by the guest (relinquish), reused before
          the page cache *)
  vcpu_seal : (int * int, int64) Hashtbl.t;
      (** (CVM id, vCPU) -> checksum of the secure vCPU taken at the last
          legitimate SM write; [audit] recomputes and compares *)
  mutable entry_hist : int list;
  mutable exit_hist : int list;
  mutable faults : (Hier_alloc.stage * int) list;
  mutable rand_counter : int;
  mutable profiler : Metrics.Profile.t option;
  last_seen : (int, int) Hashtbl.t;
      (** CVM id -> ledger cycles at its last world-switch progress
          (entry or exit); the telemetry plane's stall detector *)
}

let create ?(config = default_config) machine =
  let nharts = Array.length machine.Machine.harts in
  let ledger = machine.Machine.ledger in
  let trace =
    Metrics.Trace.create ~clock:(fun () -> Metrics.Ledger.now ledger) ()
  in
  let t =
    {
      machine;
      cfg = config;
      cost = machine.Machine.cost;
      sm = Secmem.create ();
      guard = Pmp_guard.create ~trace ();
      trace;
      registry = Metrics.Registry.create ();
      cvms = Hashtbl.create 16;
      sessions = Hashtbl.create 8;
      journal = Journal.create ();
      next_cvm_id = 1;
      channels = Hashtbl.create 8;
      next_chan_id = 1;
      host =
        Array.init nharts (fun _ ->
            {
              h_satp = 0L;
              h_hgatp = 0L;
              h_medeleg = Deleg_policy.normal_medeleg;
              h_mideleg = Deleg_policy.normal_mideleg;
              h_hedeleg = Deleg_policy.normal_hedeleg;
              h_hideleg = Deleg_policy.normal_hideleg;
              h_mode = Priv.HS;
              h_pc = 0L;
            });
      pending_mmio = Hashtbl.create 8;
      expand_retry = Hashtbl.create 8;
      staged_reg = Hashtbl.create 8;
      page_owner = Hashtbl.create 1024;
      freed_pages = Hashtbl.create 8;
      vcpu_seal = Hashtbl.create 8;
      entry_hist = [];
      exit_hist = [];
      faults = [];
      rand_counter = 0;
      profiler = None;
      last_seen = Hashtbl.create 8;
    }
  in
  (* Boot-time setup: normal delegation and an all-open PMP backdrop so
     Normal mode works before any secure region exists. *)
  Array.iter
    (fun hart ->
      Deleg_policy.apply_normal hart;
      ignore (Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false);
      hart.Hart.mode <- Priv.HS)
    machine.Machine.harts;
  (* The IOPMP runs with a permissive default over normal memory;
     standing deny entries cover each secure region as it registers. *)
  Iopmp.allow_all_default (Bus.iopmp machine.Machine.bus) true;
  t

let machine t = t.machine
let config t = t.cfg
let secmem t = t.sm
let ledger t = t.machine.Machine.ledger
let charge t cat cycles = Metrics.Ledger.charge (ledger t) cat cycles
let trace t = t.trace
let registry t = t.registry

(* Observability is recorded only while the flight recorder is switched
   on, so the disabled-path cost of every instrumentation site below is
   one load and branch. *)
let obs t = Metrics.Trace.is_enabled t.trace

(* ---------- guest PC-sampling profiler ---------- *)

let enable_profiler ?interval t =
  let p =
    match (t.profiler, interval) with
    | Some p, None -> p
    | Some p, Some i when Metrics.Profile.interval p = i -> p
    | _ ->
        let p =
          Metrics.Profile.create ?interval
            ~nharts:(Array.length t.machine.Machine.harts) ()
        in
        Array.iter
          (fun h -> h.Hart.sample_in <- Metrics.Profile.interval p)
          t.machine.Machine.harts;
        t.profiler <- Some p;
        p
  in
  Exec.profile := Some p

let disable_profiler _t = Exec.profile := None
let profiler t = t.profiler

(* ---------- per-tenant health rollups ---------- *)

type tenant_health = {
  th_cvm : int;
  th_state : string;
  th_entries : int;
  th_exits : int;
  th_switch_rate : float;
  th_request_p50 : float;
  th_request_p99 : float;
  th_faults : int;
  th_quarantined : bool;
  th_quarantine_reason : string option;
  th_stalled : bool;
  th_last_progress : int;
  th_io_kicks_suppressed : int;
  th_io_coalesced : int;
  th_io_cal_rejections : int;
  th_io_fallbacks : int;
  th_chan_grants : int;
  th_chan_accepts : int;
  th_chan_revokes : int;
  th_chan_peer_rejects : int;
  th_chan_degradations : int;
}

type health = {
  h_now : int;
  h_cvms : tenant_health list;
  h_total_switches : int;
  h_internal_faults : int;
}

let health_snapshot ?(stall_cycles = 10_000_000) ?(clock_hz = 1e8) t =
  let now = Metrics.Ledger.now (ledger t) in
  let seconds = float_of_int now /. clock_hz in
  let quantile id name p =
    match
      Metrics.Registry.histogram ~scope:(Metrics.Registry.Cvm id) t.registry
        name
    with
    | Some h when Metrics.Histogram.count h > 0 -> Metrics.Histogram.quantile h p
    | _ -> 0.
  in
  let tenants =
    Hashtbl.fold
      (fun id (cvm : Cvm.t) acc ->
        let live =
          match cvm.Cvm.state with
          | Cvm.Runnable | Cvm.Running | Cvm.Suspended -> true
          | _ -> false
        in
        let last = Hashtbl.find_opt t.last_seen id in
        let stalled =
          live
          &&
          match last with
          | Some seen -> now - seen > stall_cycles
          | None -> false
        in
        {
          th_cvm = id;
          th_state = Cvm.state_to_string cvm.Cvm.state;
          th_entries = cvm.Cvm.entry_count;
          th_exits = cvm.Cvm.exit_count;
          th_switch_rate =
            (if seconds > 0. then float_of_int cvm.Cvm.exit_count /. seconds
             else 0.);
          th_request_p50 = quantile id "request_cycles" 50.;
          th_request_p99 = quantile id "request_cycles" 99.;
          th_faults = cvm.Cvm.fault_count;
          th_quarantined = cvm.Cvm.state = Cvm.Quarantined;
          th_quarantine_reason = cvm.Cvm.quarantine_reason;
          th_stalled = stalled;
          th_last_progress = (match last with Some c -> c | None -> -1);
          th_io_kicks_suppressed =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.io.kicks_suppressed";
          th_io_coalesced =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.io.completions_coalesced";
          th_io_cal_rejections =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.io.cal_rejections";
          th_io_fallbacks =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.io.fallbacks";
          th_chan_grants =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.chan.grants";
          th_chan_accepts =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.chan.accepts";
          th_chan_revokes =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.chan.revokes";
          th_chan_peer_rejects =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.chan.peer_rejects";
          th_chan_degradations =
            Metrics.Registry.counter ~scope:(Metrics.Registry.Cvm id)
              t.registry "sm.chan.degradations";
        }
        :: acc)
      t.cvms []
    |> List.sort (fun a b -> compare a.th_cvm b.th_cvm)
  in
  {
    h_now = now;
    h_cvms = tenants;
    h_total_switches =
      List.fold_left (fun acc th -> acc + th.th_exits) 0 tenants;
    h_internal_faults = Metrics.Registry.counter t.registry "sm.internal_fault";
  }

let exit_reason_label = function
  | Exit_timer -> "timer"
  | Exit_limit -> "limit"
  | Exit_mmio _ -> "mmio"
  | Exit_shared_fault _ -> "shared_fault"
  | Exit_need_memory _ -> "need_memory"
  | Exit_shutdown -> "shutdown"
  | Exit_error _ -> "error"

(* Record an internal fault the ABI boundary absorbed. Counted even with
   the flight recorder off: a hardened SM never loses sight of these. *)
let internal_fault t name e =
  Metrics.Registry.inc t.registry "sm.internal_fault";
  if obs t then
    Metrics.Trace.instant t.trace
      ~args:[ ("site", name); ("exn", Printexc.to_string e) ]
      "sm.internal_fault";
  Error (Ecall.Internal (Printexc.to_string e))

(* The host-interface ABI boundary: span + counter around one ecall, and
   the totality guard — no exception may escape to the hypervisor. *)
let host_call t name ?cvm f =
  let observing = obs t in
  let ev = "ecall." ^ name in
  if observing then begin
    Metrics.Trace.span_begin t.trace ?cvm ev;
    Metrics.Registry.inc t.registry ev
  end;
  (* The injected SM death is not an internal fault: it models the whole
     monitor dying, so it must escape the ABI boundary to the reboot
     driver instead of being absorbed into an error reply. *)
  let r =
    try f () with
    | Journal.Crashed as c -> raise c
    | e -> internal_fault t name e
  in
  if observing then begin
    let status =
      match r with Ok _ -> "ok" | Error e -> Ecall.error_to_string e
    in
    Metrics.Trace.span_end t.trace ?cvm ~args:[ ("status", status) ] ev
  end;
  r

let find_cvm t id = Hashtbl.find_opt t.cvms id

(* Precise cross-hart shootdown: drop one VMID's translations from every
   hart's TLB — the VMID-tagged hfence.gvma. Used wherever a whole
   guest-physical space dies at once (destroy, quarantine, migrate-out
   commit): any hart may hold retained entries for the CVM, and those
   must not outlive its pages. Charged per hart actually fenced. *)
let shootdown_vmid t ~vmid ~reason =
  let harts = t.machine.Machine.harts in
  Array.iter
    (fun hart ->
      Tlb.flush_vmid hart.Hart.tlb vmid;
      Hart.invalidate_fast_path hart)
    harts;
  charge t "sm_shootdown"
    (Array.length harts * t.cost.Cost.tlb_vmid_flush);
  if obs t then begin
    Metrics.Registry.inc t.registry ~by:(Array.length harts)
      "tlb.vmid_flush";
    Metrics.Trace.instant t.trace
      ~args:[ ("vmid", string_of_int vmid); ("reason", reason) ]
      "tlb.shootdown"
  end

(* ---------- channel plumbing ---------- *)

let chan_max_strikes = 3

let find_channel t id = Hashtbl.find_opt t.channels id

let chan_live ch =
  match ch.ch_phase with
  | Chan_offered | Chan_established -> true
  | Chan_revoked | Chan_degraded -> false

let chan_endpoint_live (cvm : Cvm.t) =
  match cvm.Cvm.state with
  | Cvm.Runnable | Cvm.Running | Cvm.Suspended -> true
  | _ -> false

let chan_counter t ~cvm name =
  Metrics.Registry.inc t.registry ~scope:(Metrics.Registry.Cvm cvm) name

(* Idempotent channel teardown: drop the slot mapping from both
   endpoints, scrub the ring page, shoot it down precisely on both
   VMIDs, and return the block to the pool. Recovery and the
   destroy/quarantine sweeps re-run this from any torn intermediate
   state, so every step tolerates having already happened. [record],
   when given, interleaves the checkpoints that make the intermediate
   states reachable crash points. *)
let chan_teardown ?record t ch ~phase ~reason =
  if chan_live ch then begin
    let ckpt label =
      match record with
      | Some r -> Journal.checkpoint t.journal r label
      | None -> ()
    in
    (match ch.ch_page with
     | None -> ()
     | Some pa ->
         let unmap id =
           match find_cvm t id with
           | Some cvm when cvm.Cvm.state <> Cvm.Destroyed -> (
               (* Only drop the slot while it still points at the ring:
                  a destroyed endpoint's tables are already reclaimed
                  memory and must not be written. *)
               match Spt.lookup cvm.Cvm.spt ~gpa:ch.ch_gpa with
               | Some pa' when pa' = pa ->
                   ignore (Spt.unmap_private cvm.Cvm.spt ~gpa:ch.ch_gpa)
               | _ -> ())
           | _ -> ()
         in
         unmap ch.ch_a;
         unmap ch.ch_b;
         ckpt "chan-unmapped";
         Physmem.zero_range
           (Bus.dram t.machine.Machine.bus)
           (Int64.sub pa Bus.dram_base)
           (Int64.of_int Layout.chan_ring_size);
         charge t "sm_scrub" t.cost.Cost.page_scrub;
         (* Either endpoint may retain the translation on any hart:
            shoot the page down precisely, scoped per VMID. *)
         let harts = t.machine.Machine.harts in
         Array.iter
           (fun hart ->
             Tlb.flush_pa ~vmid:ch.ch_a hart.Hart.tlb pa;
             Tlb.flush_pa ~vmid:ch.ch_b hart.Hart.tlb pa;
             Hart.invalidate_fast_path hart)
           harts;
         charge t "sm_shootdown"
           (2 * Array.length harts * t.cost.Cost.tlb_vmid_flush);
         ckpt "chan-scrubbed";
         if not (Secmem.is_free_base t.sm pa) then
           ignore (Hier_alloc.reclaim_base t.sm ~base:pa);
         ch.ch_page <- None);
    ch.ch_phase <- phase;
    ch.ch_reason <- Some reason;
    if obs t then
      Metrics.Trace.instant t.trace
        ~args:[ ("chan", string_of_int ch.ch_id); ("reason", reason) ]
        "chan.teardown"
  end

(* Implicit revoke: every live channel touching [id] dies with it. Runs
   inside the caller's journal window (destroy, quarantine, migrate-out
   commit), so replaying the enclosing record re-runs the sweep. *)
let chan_sweep_for ?record t id ~reason =
  Hashtbl.iter
    (fun _ ch ->
      if chan_live ch && (ch.ch_a = id || ch.ch_b = id) then begin
        chan_teardown ?record t ch ~phase:Chan_revoked ~reason;
        chan_counter t ~cvm:id "sm.chan.revokes"
      end)
    t.channels

(* ---------- vCPU seals and quarantine ---------- *)

(* FNV-1a over the architectural fields. Not cryptographic — the host
   cannot address secure vCPU memory at all; the seal catches SM logic
   errors and simulation-harness tampering, and [audit] verifies it. *)
let vcpu_checksum (sv : Vcpu.secure) =
  let h = ref 0xcbf29ce484222325L in
  let mix v = h := Int64.mul (Int64.logxor !h v) 0x100000001b3L in
  Array.iter mix sv.Vcpu.regs;
  mix sv.Vcpu.pc;
  mix sv.Vcpu.vsstatus;
  mix sv.Vcpu.vstvec;
  mix sv.Vcpu.vsscratch;
  mix sv.Vcpu.vsepc;
  mix sv.Vcpu.vscause;
  mix sv.Vcpu.vstval;
  mix sv.Vcpu.vsatp;
  mix sv.Vcpu.hvip;
  mix (Int64.of_int sv.Vcpu.generation);
  !h

let seal_vcpu t cvm idx =
  Hashtbl.replace t.vcpu_seal (cvm.Cvm.id, idx)
    (vcpu_checksum (Cvm.vcpu cvm idx))

let seal_all_vcpus t cvm =
  for i = 0 to Cvm.nvcpus cvm - 1 do
    seal_vcpu t cvm i
  done

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
    chan_sweep_for ~record:jr t cvm.Cvm.id ~reason:"endpoint quarantined";
    Metrics.Registry.inc t.registry "cvm.quarantined";
    if obs t then
      Metrics.Trace.instant t.trace ~cvm:cvm.Cvm.id
        ~args:[ ("reason", reason) ]
        "cvm.quarantine";
    Journal.mark_done t.journal jr
  end

let quarantine_reason t ~cvm:id =
  Option.bind (find_cvm t id) (fun c -> c.Cvm.quarantine_reason)

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

(* ---------- host interface ---------- *)

let register_secure_region_impl t ~base ~size =
  let bus = t.machine.Machine.bus in
  let last = Int64.add base (Int64.sub size 1L) in
  if not (Bus.in_dram bus base && Bus.in_dram bus last) then
    Error Ecall.Invalid_param
  (* Refuse what PMP cannot guard before anything is linked: a region
     linked and then rejected would sit in the pool, open to HS. *)
  else if not (Pmp_guard.admits t.sm ~base ~size) then
    Error Ecall.Invalid_param
  else begin
    let jr = Journal.append t.journal (Journal.Op_expand { base; size }) in
    match Secmem.register_region t.sm ~base ~size with
    | Error _ ->
        Journal.mark_done t.journal jr;
        Error Ecall.Invalid_param
    | Ok blocks ->
        Journal.checkpoint t.journal jr "linked";
        let synced = ref 0 in
        Array.iter
          (fun hart ->
            if Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false then
              incr synced)
          t.machine.Machine.harts;
        let nharts = Array.length t.machine.Machine.harts in
        Pmp_guard.guard_iopmp t.guard (Bus.iopmp bus) t.sm;
        (* Per-hart PMP resync + IOPMP programming + the mandatory
           global fence on every hart (the paper keeps region
           registration a full-flush point). Charged per hart so the
           ledger agrees with the registry's flush count. *)
        charge t "sm_region_setup"
          ((!synced * t.cost.Cost.pmp_toggle) + t.cost.Cost.pmp_toggle
          + (nharts * t.cost.Cost.tlb_full_flush));
        Array.iter
          (fun hart ->
            Tlb.flush_all hart.Hart.tlb;
            Hart.invalidate_fast_path hart)
          t.machine.Machine.harts;
        if obs t then
          Metrics.Registry.inc t.registry ~by:nharts "tlb.full_flush";
        Journal.mark_done t.journal jr;
        Ok blocks
  end

let register_secure_region t ~base ~size =
  host_call t "register_secure_region" (fun () ->
      register_secure_region_impl t ~base ~size)

(* Allocate one 4 KiB secure page for page tables, growing the CVM's
   table-block list as needed. *)
let alloc_table_page t table_blocks () =
  let take () =
    match !table_blocks with
    | blk :: _ -> Secmem.block_take_page blk
    | [] -> None
  in
  match take () with
  | Some p -> Some p
  | None -> begin
      match Secmem.alloc_block t.sm with
      | None -> None
      | Some blk ->
          table_blocks := blk :: !table_blocks;
          Secmem.block_take_page blk
    end

(* Cap matches the migration format's plausibility bound. *)
let max_nvcpus = 64

let create_cvm_impl t ~nvcpus ~entry_pc =
  if nvcpus <= 0 || nvcpus > max_nvcpus then Error Ecall.Invalid_param
  else begin
    (* Journal the intent against the block the pop below will return
       (single-threaded SM: nothing moves the list head in between), so
       recovery can find the orphaned block if we die mid-build. *)
    match Secmem.peek_block_base t.sm with
    | None -> Error Ecall.No_memory
    | Some block_base -> (
        let id = t.next_cvm_id in
        let jr =
          Journal.append t.journal
            (Journal.Op_create { cvm = id; block_base; nvcpus })
        in
        t.next_cvm_id <- id + 1;
        (* The Sv39x4 root needs 16 KiB, 16 KiB-aligned: take the first
           four pages of a fresh block (blocks are 256 KiB-aligned). *)
        match Secmem.alloc_block t.sm with
        | None ->
            (* unreachable: the peek above saw a free block *)
            Journal.mark_done t.journal jr;
            Error Ecall.No_memory
        | Some blk ->
            Journal.checkpoint t.journal jr "block";
            let root = Secmem.block_base blk in
            for _ = 1 to 4 do
              ignore (Secmem.block_take_page blk)
            done;
            let table_blocks = ref [ blk ] in
            let spt =
              Spt.create ~bus:t.machine.Machine.bus ~root
                ~alloc_table_page:(alloc_table_page t table_blocks)
            in
            let cvm = Cvm.create ~id ~nvcpus ~entry_pc ~spt ~table_blocks in
            (* Measure what decides the first instruction before any
               page: the entry PC, the vCPU count and the shared-vCPU
               mode. Like the page extends, this charges no cycles. *)
            Option.iter
              (fun m ->
                Attest.extend_config m
                  (Printf.sprintf "entry_pc=0x%Lx nvcpus=%d shared_vcpu=%b"
                     entry_pc nvcpus t.cfg.shared_vcpu))
              cvm.Cvm.measurement_ctx;
            Hashtbl.replace t.cvms id cvm;
            Journal.checkpoint t.journal jr "registered";
            seal_all_vcpus t cvm;
            charge t "sm_cvm_create"
              (t.cost.Cost.page_scrub * 4 (* zero the root *)
              + t.cost.Cost.block_grab);
            Journal.mark_done t.journal jr;
            Ok id)
  end

let create_cvm t ~nvcpus ~entry_pc =
  host_call t "create_cvm" (fun () -> create_cvm_impl t ~nvcpus ~entry_pc)

(* Allocate and map one private page; returns its physical address.
   Pages the guest relinquished earlier are reused first — they are the
   cheapest source, equivalent to a page-cache hit. *)
let take_freed t cvm_id =
  match Hashtbl.find_opt t.freed_pages cvm_id with
  | Some ({ contents = pa :: rest } as r) ->
      r := rest;
      Some pa
  | Some { contents = [] } | None -> None

let provide_private_page t cvm cache ~gpa ~after_expand =
  let alloc_outcome =
    match take_freed t cvm.Cvm.id with
    | Some pa ->
        Hashtbl.remove t.page_owner pa;
        Hier_alloc.Allocated
          (pa, if after_expand then Hier_alloc.Stage3_retry else Hier_alloc.Stage1)
    | None -> Hier_alloc.allocate ~trace:t.trace t.sm cache ~after_expand
  in
  match alloc_outcome with
  | Hier_alloc.Need_expand -> Error `Need_expand
  | Hier_alloc.Allocated (pa, stage) -> begin
      (* Exclusivity: a page may back exactly one CVM. *)
      (match Hashtbl.find_opt t.page_owner pa with
      | Some owner ->
          invalid_arg
            (Printf.sprintf
               "SM invariant violated: page 0x%Lx already owned by CVM %d" pa
               owner)
      | None -> ());
      Physmem.zero_range
        (Bus.dram t.machine.Machine.bus)
        (Int64.sub pa Bus.dram_base) 4096L;
      match Spt.map_private cvm.Cvm.spt ~gpa ~pa ~writable:true with
      | Error e -> Error (`Map_error e)
      | Ok () ->
          Hashtbl.replace t.page_owner pa cvm.Cvm.id;
          Ok (pa, stage)
    end

let load_image_impl t ~cvm:id ~gpa data =
  match find_cvm t id with
  | None -> Error Ecall.Not_found
  | Some cvm when cvm.Cvm.state = Cvm.Quarantined -> Error Ecall.Quarantined
  | Some cvm when cvm.Cvm.state <> Cvm.Created -> Error Ecall.Bad_state
  | Some cvm ->
      if Int64.rem gpa 4096L <> 0L || not (Layout.is_private_gpa gpa) then
        Error Ecall.Invalid_param
      else begin
        let bus = t.machine.Machine.bus in
        let cache = Cvm.cache cvm 0 in
        let len = String.length data in
        let npages = (len + 4095) / 4096 in
        (* The payload lives in untrusted memory and is not journaled: a
           crash mid-load leaves a torn measurement, so recovery rolls
           the whole Created CVM back and the host retries from scratch.
           A completed load (even one that returned an error) marks the
           record done — the state it left is well-defined. *)
        let jr =
          Journal.append t.journal (Journal.Op_load { cvm = id; gpa; npages })
        in
        let rec go page =
          if page >= npages then Ok ()
          else begin
            let page_gpa = Int64.add gpa (Int64.of_int (page * 4096)) in
            (* Each page is written and measured as a slice of [data]:
               the image is copied once, into DRAM. *)
            let off = page * 4096 in
            let chunk_len = min 4096 (len - off) in
            let target =
              match Spt.lookup cvm.Cvm.spt ~gpa:page_gpa with
              | Some pa -> Ok pa
              | None -> begin
                  match
                    provide_private_page t cvm cache ~gpa:page_gpa
                      ~after_expand:false
                  with
                  | Ok (pa, _) -> Ok pa
                  | Error `Need_expand -> Error Ecall.No_memory
                  | Error (`Map_error _) -> Error Ecall.Invalid_param
                end
            in
            match target with
            | Error e -> Error e
            | Ok pa ->
                Bus.write_sub bus pa data off chunk_len;
                (match cvm.Cvm.measurement_ctx with
                | Some m -> Attest.extend_sub m ~gpa:page_gpa data off chunk_len
                | None -> ());
                Journal.checkpoint t.journal jr
                  (Printf.sprintf "page:%d" page);
                go (page + 1)
          end
        in
        let result = go 0 in
        Journal.mark_done t.journal jr;
        result
      end

let load_image t ~cvm ~gpa data =
  host_call t "load_image" ~cvm (fun () -> load_image_impl t ~cvm ~gpa data)

let finalize_cvm t ~cvm:id =
  host_call t "finalize_cvm" ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined ->
          Error Ecall.Quarantined
      | Some cvm -> begin
          match (cvm.Cvm.state, cvm.Cvm.measurement_ctx) with
          | Cvm.Created, Some m ->
              let digest = Attest.seal m in
              cvm.Cvm.measurement <- Some digest;
              cvm.Cvm.measurement_ctx <- None;
              cvm.Cvm.state <- Cvm.Runnable;
              (* Stall-detection baseline: runnable-but-never-entered
                 counts as progress from this moment. *)
              Hashtbl.replace t.last_seen id (Metrics.Ledger.now (ledger t));
              Ok digest
          | _ -> Error Ecall.Bad_state
        end)

let install_shared t ~cvm:id ~table_pa =
  host_call t "install_shared" ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined ->
          Error Ecall.Quarantined
      | Some cvm ->
          (* The subtree root must be a real normal-memory page before
             the SM writes it into the CVM's root table; a wild pointer
             would make every later walk fault inside the SM. *)
          if
            Int64.rem table_pa 4096L <> 0L
            || not (Bus.in_dram t.machine.Machine.bus table_pa)
          then Error Ecall.Invalid_address
          else begin
            match
              Spt.install_shared_root cvm.Cvm.spt
                ~is_secure:(Secmem.contains t.sm) ~table_pa
            with
            | Ok () -> Ok ()
            | Error _ -> Error Ecall.Denied
          end)

(* The destroy state machine, factored so recovery can replay it: every
   step is idempotent (a second pass scrubs zero pages, frees zero
   blocks, flips no counter), so a crash anywhere inside converges by
   simply running it again. [record], when given, receives progress
   checkpoints — the crash points a sweep visits. *)
let destroy_replay ?record t cvm =
  let id = cvm.Cvm.id in
  let ckpt label =
    match record with
    | Some r -> Journal.checkpoint t.journal r label
    | None -> ()
  in
  let bus = t.machine.Machine.bus in
  let was_destroyed = cvm.Cvm.state = Cvm.Destroyed in
  (* Channels die first, while both endpoints' page tables are still
     intact: the teardown's unmap writes table pages that the block
     scrubbing below is about to reclaim. *)
  chan_sweep_for ?record t id ~reason:"endpoint destroyed";
  (* Scrub every owned page, drop ownership, return blocks. *)
  Hashtbl.iter
    (fun pa owner ->
      if owner = id then begin
        Physmem.zero_range (Bus.dram bus) (Int64.sub pa Bus.dram_base)
          4096L;
        charge t "sm_scrub" t.cost.Cost.page_scrub
      end)
    t.page_owner;
  Hashtbl.filter_map_inplace
    (fun _ owner -> if owner = id then None else Some owner)
    t.page_owner;
  (* Unlink the hypervisor subtree while the root table is still
     live, then scrub and return every block. *)
  Spt.clear_shared_root cvm.Cvm.spt;
  ckpt "scrubbed";
  List.iter
    (fun blk ->
      ignore
        (Hier_alloc.scrub_free
           ~zero:(fun ~base ~bytes ->
             Physmem.zero_range (Bus.dram bus)
               (Int64.sub base Bus.dram_base)
               bytes)
           t.sm blk))
    (Cvm.owned_blocks cvm);
  (* Drop every stale reference to the recycled blocks: the page
     caches, the table-block list, and the relinquished-page pool.
     Without this a destroyed CVM's cache still aliases blocks the
     next CVM may own (reuse-after-destroy). *)
  Array.iter Page_cache.reset cvm.Cvm.caches;
  cvm.Cvm.table_blocks := [];
  Hashtbl.remove t.freed_pages id;
  cvm.Cvm.state <- Cvm.Destroyed;
  if not was_destroyed then Metrics.Registry.inc t.registry "cvm.destroyed";
  ckpt "reclaimed";
  (* Every hart that ever ran this CVM may retain translations into
     the just-freed blocks; without this shootdown the next owner of
     those blocks inherits them (covers migrate_out_commit too,
     which destroys through here). *)
  shootdown_vmid t ~vmid:id ~reason:"destroy";
  for v = 0 to Cvm.nvcpus cvm - 1 do
    Hashtbl.remove t.pending_mmio (id, v);
    Hashtbl.remove t.staged_reg (id, v);
    Hashtbl.remove t.expand_retry (id, v);
    Hashtbl.remove t.vcpu_seal (id, v)
  done;
  (* A migration session whose CVM disappears under it can never
     complete: fold it to Aborted so the ownership audit stays
     truthful. [migrate_out_commit] marks its session Committed
     *before* destroying, so the legitimate handoff is untouched. *)
  Hashtbl.iter
    (fun _ s ->
      if s.mg_phase = Mig_active && s.mg_cvm = Some id then
        s.mg_phase <- Mig_aborted)
    t.sessions

let destroy_cvm_impl t ~cvm:id =
  match find_cvm t id with
  | None -> Error Ecall.Not_found
  (* Double-destroy must not reach the free list: the blocks were
     already reinserted once and a second [free_block] would corrupt
     the allocator every CVM shares. *)
  | Some cvm when cvm.Cvm.state = Cvm.Destroyed -> Error Ecall.Bad_state
  | Some cvm ->
      let jr = Journal.append t.journal (Journal.Op_destroy { cvm = id }) in
      destroy_replay ~record:jr t cvm;
      Journal.mark_done t.journal jr;
      Ok ()

let destroy_cvm t ~cvm =
  host_call t "destroy_cvm" ~cvm (fun () -> destroy_cvm_impl t ~cvm)

let next_random t =
  t.rand_counter <- t.rand_counter + 1;
  let h =
    Attest.hmac_sha256 ~key:Attest.platform_key
      (Printf.sprintf "rng:%d" t.rand_counter)
  in
  let v = ref 0L in
  for i = 0 to 7 do
    v := Int64.logor (Int64.shift_left !v 8) (Int64.of_int (Char.code h.[i]))
  done;
  !v

(* ---------- attested inter-CVM channels ---------- *)

(* The ring page layout (see Layout): two directional halves, each
   [seq:u64][len:u64][payload]. The owner of a half bumps seq after
   writing payload+len; the SM keeps the last *delivered* seq per
   direction as its shadow, so Check-after-Load at consume time never
   trusts a header field it has not bounded. *)

let chan_runaway_bound = 0x100000L
(* A producer may run ahead of deliveries, but not by 2^20 messages:
   past that the seq is garbage, not backlog. *)

let chan_dir_base ch ~from_a =
  match ch.ch_page with
  | None -> invalid_arg "chan_dir_base: channel holds no ring page"
  | Some pa ->
      if from_a then pa else Int64.add pa (Int64.of_int Layout.chan_dir_off)

(* Generate [cvm]'s attestation report over [nonce], MAC-bound to its
   current lifecycle epoch. *)
let chan_report (cvm : Cvm.t) ~measurement ~nonce =
  Attest.make_report ~cvm_id:cvm.Cvm.id ~epoch:cvm.Cvm.epoch ~measurement
    ~nonce

let chan_grant_impl t ~cvm:a_id ~peer:b_id ~nonce ~expect =
  if not (Attest.valid_nonce nonce) then Error Ecall.Invalid_param
  else if a_id = b_id then Error Ecall.Invalid_param
  else
    match (find_cvm t a_id, find_cvm t b_id) with
    | None, _ | _, None -> Error Ecall.Not_found
    | Some a, Some b -> (
        if a.Cvm.state = Cvm.Quarantined || b.Cvm.state = Cvm.Quarantined
        then Error Ecall.Quarantined
        else if not (chan_endpoint_live a && chan_endpoint_live b) then
          Error Ecall.Bad_state
        else
          match (a.Cvm.measurement, b.Cvm.measurement) with
          | None, _ | _, None -> Error Ecall.Bad_state
          | Some _, Some mb ->
              (* The granter's admission policy: nothing is allocated
                 for a peer whose current measurement is not the one the
                 granter expects. *)
              if not (Attest.constant_time_eq mb expect) then begin
                chan_counter t ~cvm:a_id "sm.chan.peer_rejects";
                Error Ecall.Denied
              end
              else if t.next_chan_id >= Layout.chan_slots then
                Error Ecall.No_memory
              else (
                match Secmem.peek_block_base t.sm with
                | None -> Error Ecall.No_memory
                | Some block_base -> (
                    let id = t.next_chan_id in
                    let jr =
                      Journal.append t.journal
                        (Journal.Op_chan_grant
                           { chan = id; a = a_id; b = b_id; block_base })
                    in
                    t.next_chan_id <- id + 1;
                    match Secmem.alloc_block t.sm with
                    | None ->
                        (* unreachable: the peek above saw a free block *)
                        Journal.mark_done t.journal jr;
                        Error Ecall.No_memory
                    | Some blk ->
                        Journal.checkpoint t.journal jr "block";
                        let pa = Secmem.block_base blk in
                        Physmem.zero_range
                          (Bus.dram t.machine.Machine.bus)
                          (Int64.sub pa Bus.dram_base)
                          (Int64.of_int Layout.chan_ring_size);
                        charge t "sm_chan"
                          (t.cost.Cost.block_grab + t.cost.Cost.page_scrub);
                        let ch =
                          {
                            ch_id = id;
                            ch_a = a_id;
                            ch_b = b_id;
                            ch_phase = Chan_offered;
                            ch_page = Some pa;
                            ch_gpa = Layout.chan_slot_gpa id;
                            ch_epoch_a = a.Cvm.epoch;
                            ch_epoch_b = b.Cvm.epoch;
                            ch_seq_ab = 0L;
                            ch_seq_ba = 0L;
                            ch_strikes = 0;
                            ch_reason = None;
                          }
                        in
                        Hashtbl.replace t.channels id ch;
                        Journal.checkpoint t.journal jr "registered";
                        chan_counter t ~cvm:a_id "sm.chan.grants";
                        if obs t then
                          Metrics.Trace.instant t.trace ~cvm:a_id
                            ~args:
                              [
                                ("chan", string_of_int id);
                                ("peer", string_of_int b_id);
                              ]
                            "chan.grant";
                        Journal.mark_done t.journal jr;
                        (* The peer's report over the granter's nonce,
                           bound to the peer's current epoch: the
                           granter verifies it before telling its guest
                           the channel id. *)
                        Ok (id, chan_report b ~measurement:mb ~nonce))))

let chan_grant t ~cvm ~peer ~nonce ~expect =
  host_call t "chan_grant" ~cvm (fun () ->
      chan_grant_impl t ~cvm ~peer ~nonce ~expect)

let chan_accept_impl t ~chan ~cvm:b_id ~nonce ~expect =
  if not (Attest.valid_nonce nonce) then Error Ecall.Invalid_param
  else
    match find_channel t chan with
    | None -> Error Ecall.Not_found
    | Some ch -> (
        if ch.ch_b <> b_id then Error Ecall.Denied
        else
          match ch.ch_phase with
          | Chan_established | Chan_revoked | Chan_degraded ->
              Error Ecall.Bad_state
          | Chan_offered -> (
              match (find_cvm t ch.ch_a, find_cvm t ch.ch_b) with
              | None, _ | _, None -> Error Ecall.Not_found
              | Some a, Some b -> (
                  if
                    a.Cvm.state = Cvm.Quarantined
                    || b.Cvm.state = Cvm.Quarantined
                  then Error Ecall.Quarantined
                  else if not (chan_endpoint_live a && chan_endpoint_live b)
                  then Error Ecall.Bad_state
                  else
                    match (a.Cvm.measurement, b.Cvm.measurement) with
                    | None, _ | _, None -> Error Ecall.Bad_state
                    | Some ma, Some _ ->
                        (* Freshness: the offer's attestation evidence
                           is only as current as the endpoints' epochs.
                           Any lifecycle transition since (a migrate-out
                           lock or release) makes the offer stale, so a
                           pre-migration report cannot be replayed to
                           establish a channel. *)
                        if
                          a.Cvm.epoch <> ch.ch_epoch_a
                          || b.Cvm.epoch <> ch.ch_epoch_b
                        then begin
                          chan_counter t ~cvm:b_id "sm.chan.peer_rejects";
                          Error Ecall.Denied
                        end
                        else if not (Attest.constant_time_eq ma expect)
                        then begin
                          chan_counter t ~cvm:b_id "sm.chan.peer_rejects";
                          Error Ecall.Denied
                        end
                        else
                          let pa =
                            match ch.ch_page with
                            | Some pa -> pa
                            | None -> assert false (* offered holds a page *)
                          in
                          (* The slot must be free in both private
                             halves: a demand-paged page at the slot GPA
                             would alias a mapping the guest already
                             relies on. *)
                          if
                            Spt.lookup a.Cvm.spt ~gpa:ch.ch_gpa <> None
                            || Spt.lookup b.Cvm.spt ~gpa:ch.ch_gpa <> None
                          then Error Ecall.Already_exists
                          else begin
                            let jr =
                              Journal.append t.journal
                                (Journal.Op_chan_accept { chan })
                            in
                            match
                              Spt.map_private a.Cvm.spt ~gpa:ch.ch_gpa ~pa
                                ~writable:true
                            with
                            | Error _ ->
                                Journal.mark_done t.journal jr;
                                Error Ecall.No_memory
                            | Ok () -> (
                                Journal.checkpoint t.journal jr "map-a";
                                match
                                  Spt.map_private b.Cvm.spt ~gpa:ch.ch_gpa
                                    ~pa ~writable:true
                                with
                                | Error _ ->
                                    ignore
                                      (Spt.unmap_private a.Cvm.spt
                                         ~gpa:ch.ch_gpa);
                                    Journal.mark_done t.journal jr;
                                    Error Ecall.No_memory
                                | Ok () ->
                                    Journal.checkpoint t.journal jr "map-b";
                                    ch.ch_phase <- Chan_established;
                                    ch.ch_seq_ab <- 0L;
                                    ch.ch_seq_ba <- 0L;
                                    ch.ch_strikes <- 0;
                                    charge t "sm_chan"
                                      (2 * t.cost.Cost.gstage_map);
                                    chan_counter t ~cvm:b_id
                                      "sm.chan.accepts";
                                    if obs t then
                                      Metrics.Trace.instant t.trace
                                        ~cvm:b_id
                                        ~args:
                                          [ ("chan", string_of_int chan) ]
                                        "chan.accept";
                                    Journal.mark_done t.journal jr;
                                    Ok (chan_report a ~measurement:ma ~nonce))
                          end)))

let chan_accept t ~chan ~cvm ~nonce ~expect =
  host_call t "chan_accept" ~cvm (fun () ->
      chan_accept_impl t ~chan ~cvm ~nonce ~expect)

let chan_revoke_impl t ~chan ~cvm:id =
  match find_channel t chan with
  | None -> Error Ecall.Not_found
  | Some ch ->
      if ch.ch_a <> id && ch.ch_b <> id then Error Ecall.Denied
      else if not (chan_live ch) then Ok () (* idempotent *)
      else begin
        let jr =
          Journal.append t.journal
            (Journal.Op_chan_revoke { chan; degraded = false })
        in
        chan_teardown ~record:jr t ch ~phase:Chan_revoked
          ~reason:"revoked by endpoint";
        chan_counter t ~cvm:id "sm.chan.revokes";
        Journal.mark_done t.journal jr;
        Ok ()
      end

let chan_revoke t ~chan ~cvm =
  host_call t "chan_revoke" ~cvm (fun () -> chan_revoke_impl t ~chan ~cvm)

(* PR 8's Byzantine discipline aimed at a hostile *peer*: one strike per
   rejected header field; at the budget the channel — never the CVM —
   is one-way degraded (journaled, scrubbed, unmapped, block
   reclaimed). *)
let chan_strike t ch ~victim verdict =
  ch.ch_strikes <- ch.ch_strikes + 1;
  chan_counter t ~cvm:victim "sm.chan.peer_rejects";
  if obs t then
    Metrics.Trace.instant t.trace ~cvm:victim
      ~args:[ ("chan", string_of_int ch.ch_id); ("verdict", verdict) ]
      "chan.cal_reject";
  if ch.ch_strikes >= chan_max_strikes && chan_live ch then begin
    let jr =
      Journal.append t.journal
        (Journal.Op_chan_revoke { chan = ch.ch_id; degraded = true })
    in
    chan_teardown ~record:jr t ch ~phase:Chan_degraded
      ~reason:(Printf.sprintf "strike budget exhausted (%s)" verdict);
    chan_counter t ~cvm:victim "sm.chan.degradations";
    Journal.mark_done t.journal jr
  end

(* Check-after-Load over one peer-writable directional half: load seq
   and len exactly once, bound them against the SM's shadow, and only
   then classify. *)
type chan_msg = Chan_idle | Chan_msg of int64 * int | Chan_bad of string

let chan_check_dir t ch ~from_a ~shadow =
  let bus = t.machine.Machine.bus in
  let base = chan_dir_base ch ~from_a in
  let seq = Bus.read bus base 8 in
  let len = Bus.read bus (Int64.add base 8L) 8 in
  charge t "sm_chan" (2 * t.cost.Cost.check_after_load);
  if seq = shadow then Chan_idle
  else if Xword.ult seq shadow then Chan_bad "seq_rewind"
  else if Xword.ult (Int64.add shadow chan_runaway_bound) seq then
    Chan_bad "seq_runaway"
  else if len < 1L || len > Int64.of_int Layout.chan_max_msg then
    Chan_bad "bad_len"
  else Chan_msg (seq, Int64.to_int len)

(* Host-driveable watchdog: validate both halves' headers without
   delivering anything. Returns [Ok true] while the channel stays live,
   [Ok false] once it is dead (now or before) — degradation is not an
   error, it is the one-way outcome the host polls for. *)
let chan_poll_impl t ~chan =
  match find_channel t chan with
  | None -> Error Ecall.Not_found
  | Some ch ->
      if not (chan_live ch) then Ok false
      else begin
        if ch.ch_phase = Chan_established then begin
          (match chan_check_dir t ch ~from_a:true ~shadow:ch.ch_seq_ab with
          | Chan_bad v -> chan_strike t ch ~victim:ch.ch_b v
          | Chan_idle | Chan_msg _ -> ());
          if chan_live ch then
            match chan_check_dir t ch ~from_a:false ~shadow:ch.ch_seq_ba with
            | Chan_bad v -> chan_strike t ch ~victim:ch.ch_a v
            | Chan_idle | Chan_msg _ -> ()
        end;
        Ok (chan_live ch)
      end

let chan_poll t ~chan = host_call t "chan_poll" (fun () -> chan_poll_impl t ~chan)

type chan_info = {
  ci_id : int;
  ci_a : int;
  ci_b : int;
  ci_phase : string;
  ci_gpa : int64;
  ci_page : int64 option;
  ci_strikes : int;
  ci_reason : string option;
}

let chan_phase_to_string = function
  | Chan_offered -> "offered"
  | Chan_established -> "established"
  | Chan_revoked -> "revoked"
  | Chan_degraded -> "degraded"

let chan_info t ~chan =
  Option.map
    (fun ch ->
      {
        ci_id = ch.ch_id;
        ci_a = ch.ch_a;
        ci_b = ch.ch_b;
        ci_phase = chan_phase_to_string ch.ch_phase;
        ci_gpa = ch.ch_gpa;
        ci_page = ch.ch_page;
        ci_strikes = ch.ch_strikes;
        ci_reason = ch.ch_reason;
      })
    (find_channel t chan)

let chan_list t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.channels []
  |> List.sort compare
  |> List.filter_map (fun id -> chan_info t ~chan:id)

(* ---------- migration ---------- *)

let vcpu_to_image (sv : Vcpu.secure) =
  {
    Migrate.vi_regs = Array.copy sv.Vcpu.regs;
    vi_pc = sv.Vcpu.pc;
    vi_csrs =
      [|
        sv.Vcpu.vsstatus; sv.Vcpu.vstvec; sv.Vcpu.vsscratch; sv.Vcpu.vsepc;
        sv.Vcpu.vscause; sv.Vcpu.vstval; sv.Vcpu.vsatp; sv.Vcpu.hvip;
      |];
  }

let image_to_vcpu (vi : Migrate.vcpu_image) (sv : Vcpu.secure) =
  Array.blit vi.Migrate.vi_regs 0 sv.Vcpu.regs 0 32;
  sv.Vcpu.pc <- vi.Migrate.vi_pc;
  (match vi.Migrate.vi_csrs with
  | [| a; b; c; d; e; f; g; h |] ->
      sv.Vcpu.vsstatus <- a;
      sv.Vcpu.vstvec <- b;
      sv.Vcpu.vsscratch <- c;
      sv.Vcpu.vsepc <- d;
      sv.Vcpu.vscause <- e;
      sv.Vcpu.vstval <- f;
      sv.Vcpu.vsatp <- g;
      sv.Vcpu.hvip <- h
  | _ -> invalid_arg "image_to_vcpu: bad CSR image")

(* Snapshot a CVM into a migration image: every secure vCPU, the sealed
   measurement, and all mapped private pages. The caller has already
   checked the state. *)
let snapshot_image t cvm =
  let bus = t.machine.Machine.bus in
  let pages =
    Spt.fold_private cvm.Cvm.spt
      (fun ~gpa ~pa acc -> (gpa, Bus.read_bytes bus pa 4096) :: acc)
      []
  in
  (* Per-page crypto work dominates the export path. *)
  charge t "sm_migrate" (List.length pages * t.cost.Cost.page_scrub);
  {
    Migrate.im_vcpus = Array.to_list (Array.map vcpu_to_image cvm.Cvm.vcpus);
    im_measurement = Option.value ~default:"" cvm.Cvm.measurement;
    im_pages = List.rev pages;
  }

(* Fresh, unpredictable-to-the-host export nonce from the SM's DRBG. *)
let fresh_export_nonce t =
  Printf.sprintf "%Ld:%Ld" (next_random t) (next_random t)

(* Rebuild a CVM from a verified image into fresh secure memory, landing
   it in [Migrating_in] (the 2PC prepared state). Rolls the half-built
   CVM back on any failure. The prepare record [jr] learns the id (with
   a checkpoint) the moment the empty CVM exists, so a crash
   mid-restore can still find and scrub the half-built instance. *)
let build_cvm_from_image t ~jr im =
  let nvcpus = List.length im.Migrate.im_vcpus in
  match create_cvm t ~nvcpus ~entry_pc:0L with
  | Error e -> Error e
  | Ok id -> begin
      (match jr.Journal.op with
      | Journal.Op_mig_in_prepare p -> p.built <- Some id
      | _ -> ());
      Journal.checkpoint t.journal jr "built";
      let cvm =
        match find_cvm t id with Some c -> c | None -> assert false
      in
      let bus = t.machine.Machine.bus in
      let cache = Cvm.cache cvm 0 in
      let rec restore = function
        | [] -> Ok ()
        | (gpa, data) :: rest -> begin
            match
              provide_private_page t cvm cache ~gpa ~after_expand:false
            with
            | Ok (pa, _) ->
                Bus.write_bytes bus pa data;
                restore rest
            | Error `Need_expand ->
                (* roll back the half-built CVM *)
                ignore (destroy_cvm_impl t ~cvm:id);
                Error Ecall.No_memory
            | Error (`Map_error _) ->
                ignore (destroy_cvm_impl t ~cvm:id);
                Error Ecall.Invalid_param
          end
      in
      match restore im.Migrate.im_pages with
      | Error e -> Error e
      | Ok () ->
          List.iteri
            (fun i vi -> image_to_vcpu vi (Cvm.vcpu cvm i))
            im.Migrate.im_vcpus;
          seal_all_vcpus t cvm;
          cvm.Cvm.measurement <-
            (if im.Migrate.im_measurement = "" then None
             else Some im.Migrate.im_measurement);
          cvm.Cvm.measurement_ctx <- None;
          cvm.Cvm.state <- Cvm.Migrating_in;
          charge t "sm_migrate"
            (List.length im.Migrate.im_pages * t.cost.Cost.page_scrub);
          Ok id
    end

(* ---------- crash-safe migration sessions (2PC handoff) ---------- *)

(* The session table is the protocol's durable truth: courier endpoints
   (Migrate_proto) may crash and lose every timer and buffer, but the
   decision state — who owns the guest — lives here and only moves
   through the entry points below. *)

let session_key role session =
  (match role with Mig_out -> "out:" | Mig_in -> "in:") ^ session

let find_session t role session =
  Hashtbl.find_opt t.sessions (session_key role session)

(* Session ids arrive from the untrusted host: bound and sanity-check
   them before they become hash keys and trace labels. *)
let valid_session_id s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all (fun c -> Char.code c >= 0x21 && Char.code c <= 0x7e) s

(* Public, non-secret fingerprint of a sealed blob: lets both monitors
   agree they are talking about the same bytes without trusting the
   courier. Keyed hash only to reuse the primitive; the key is public. *)
let blob_tag blob = Attest.hmac_sha256 ~key:"zion-migrate-blob-tag" blob

let default_retry_budget = 12

let migrate_out_begin_impl t ~cvm:id ~session ~budget =
  if not (valid_session_id session) || budget <= 0 then
    Error Ecall.Invalid_param
  else
    match find_cvm t id with
    | None -> Error Ecall.Not_found
    | Some cvm -> begin
        match find_session t Mig_out session with
        | Some s -> begin
            (* Recovery re-begin: only the incumbent session may restart,
               and only while the handoff is still undecided. The nonce
               is reused so the re-export is byte-identical — chunks the
               destination already holds stay valid. *)
            match s.mg_phase with
            | Mig_active
              when s.mg_cvm = Some id && cvm.Cvm.state = Cvm.Migrating_out ->
                s.mg_epoch <- s.mg_epoch + 1;
                s.mg_stalls <- 0;
                let blob =
                  Migrate.seal ~nonce:s.mg_nonce (snapshot_image t cvm)
                in
                s.mg_blob_tag <- blob_tag blob;
                Metrics.Registry.inc t.registry "migrate.out_rebegin";
                Ok (blob, s.mg_epoch)
            | _ -> Error Ecall.Already_exists
          end
        | None -> begin
            match cvm.Cvm.state with
            | Cvm.Quarantined -> Error Ecall.Quarantined
            | Cvm.Created | Cvm.Destroyed | Cvm.Running
            | Cvm.Migrating_out | Cvm.Migrating_in ->
                Error Ecall.Bad_state
            | Cvm.Runnable | Cvm.Suspended ->
                let nonce = fresh_export_nonce t in
                let blob = Migrate.seal ~nonce (snapshot_image t cvm) in
                let jr =
                  Journal.append t.journal
                    (Journal.Op_mig_out_begin { session; cvm = id })
                in
                cvm.Cvm.state <- Cvm.Migrating_out;
                (* Lifecycle transition: every attestation report issued
                   before this lock is now stale — channel offers bound
                   to the old epoch can no longer be accepted. *)
                cvm.Cvm.epoch <- cvm.Cvm.epoch + 1;
                Journal.checkpoint t.journal jr "locked";
                Hashtbl.replace t.sessions
                  (session_key Mig_out session)
                  {
                    mg_role = Mig_out;
                    mg_phase = Mig_active;
                    mg_cvm = Some id;
                    mg_epoch = 1;
                    mg_nonce = nonce;
                    mg_blob_tag = blob_tag blob;
                    mg_stalls = 0;
                    mg_budget = budget;
                  };
                Metrics.Registry.inc t.registry "migrate.out_begin";
                Journal.mark_done t.journal jr;
                Ok (blob, 1)
          end
      end

let migrate_out_begin ?(budget = default_retry_budget) t ~cvm ~session =
  host_call t "migrate_out_begin" ~cvm (fun () ->
      migrate_out_begin_impl t ~cvm ~session ~budget)

let migrate_out_abort t ~session =
  host_call t "migrate_out_abort" (fun () ->
      match find_session t Mig_out session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          (* past the commit point the handoff is irrevocable *)
          | Mig_committed -> Error Ecall.Bad_state
          | Mig_aborted -> Ok ()
          | Mig_active ->
              let jr =
                Journal.append t.journal
                  (Journal.Op_mig_out_abort { session })
              in
              (match s.mg_cvm with
              | Some id -> begin
                  match find_cvm t id with
                  | Some cvm when cvm.Cvm.state = Cvm.Migrating_out ->
                      (* reactivate: the source stays the one owner —
                         but in a fresh epoch, so reports minted while
                         the migration was pending do not outlive it *)
                      cvm.Cvm.state <- Cvm.Suspended;
                      cvm.Cvm.epoch <- cvm.Cvm.epoch + 1
                  | _ -> ()
                end
              | None -> ());
              Journal.checkpoint t.journal jr "released";
              s.mg_phase <- Mig_aborted;
              Metrics.Registry.inc t.registry "migrate.out_abort";
              Journal.mark_done t.journal jr;
              Ok ()
        end)

let migrate_out_commit t ~session =
  host_call t "migrate_out_commit" (fun () ->
      match find_session t Mig_out session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          | Mig_aborted -> Error Ecall.Bad_state
          | Mig_committed -> Ok ()  (* idempotent: recovery retries land here *)
          | Mig_active -> begin
              match s.mg_cvm with
              | None -> Error Ecall.Bad_state
              | Some id ->
                  (* The commit point of the whole handoff: once the
                     intent lands the decision is irrevocable — recovery
                     rolls it forward even if the crash struck before
                     the phase flip below. Flip the session first so the
                     destroy sweep leaves it Committed, then scrub the
                     source instance. *)
                  let jr =
                    Journal.append t.journal
                      (Journal.Op_mig_out_commit { session })
                  in
                  s.mg_phase <- Mig_committed;
                  Journal.checkpoint t.journal jr "committed";
                  ignore (destroy_cvm_impl t ~cvm:id);
                  Metrics.Registry.inc t.registry "migrate.out_commit";
                  Journal.mark_done t.journal jr;
                  Ok ()
            end
        end)

(* Whether an in-session other than [session] already took a blob with
   this tag, in any phase. *)
let blob_taken t ~session tag =
  let key = session_key Mig_in session in
  Hashtbl.fold
    (fun k s taken ->
      taken || (k <> key && s.mg_role = Mig_in && s.mg_blob_tag = tag))
    t.sessions false

let migrate_in_prepare t ~session ~epoch blob =
  host_call t "migrate_in_prepare" (fun () ->
      if not (valid_session_id session) || epoch <= 0 then
        Error Ecall.Invalid_param
      else
        match find_session t Mig_in session with
        (* Session ids are single-use: a committed (or aborted) session
           never accepts another blob, which kills replay-of-committed-
           session attacks outright. *)
        | Some s when s.mg_phase <> Mig_active -> Error Ecall.Denied
        | Some s when epoch < s.mg_epoch -> Error Ecall.Bad_state
        | maybe -> begin
            let tag = blob_tag blob in
            match Migrate.unseal blob with
            | Error _ -> Error Ecall.Denied
            (* Blobs are single-use too: the same bytes replayed under a
               fresh session id would land a second live copy. *)
            | Ok _ when blob_taken t ~session tag -> Error Ecall.Denied
            | Ok im -> begin
                let jr =
                  Journal.append t.journal
                    (Journal.Op_mig_in_prepare
                       { session; epoch; built = None })
                in
                let finish r =
                  Journal.mark_done t.journal jr;
                  r
                in
                (* A newer epoch replaces any earlier prepared instance
                   of the same session. *)
                (match maybe with
                | Some s -> begin
                    match s.mg_cvm with
                    | Some old ->
                        ignore (destroy_cvm_impl t ~cvm:old);
                        (* the destroy sweep folded the session to
                           Aborted; it is being re-prepared, not dying *)
                        s.mg_phase <- Mig_active;
                        s.mg_cvm <- None
                    | None -> ()
                  end
                | None -> ());
                match build_cvm_from_image t ~jr im with
                | Error e -> finish (Error e)
                | Ok id ->
                    (match maybe with
                    | Some s ->
                        s.mg_cvm <- Some id;
                        s.mg_epoch <- epoch;
                        s.mg_blob_tag <- tag
                    | None ->
                        Hashtbl.replace t.sessions
                          (session_key Mig_in session)
                          {
                            mg_role = Mig_in;
                            mg_phase = Mig_active;
                            mg_cvm = Some id;
                            mg_epoch = epoch;
                            mg_nonce = "";
                            mg_blob_tag = tag;
                            mg_stalls = 0;
                            mg_budget = 0;
                          });
                    Metrics.Registry.inc t.registry "migrate.in_prepare";
                    finish (Ok id)
              end
          end)

let migrate_in_commit t ~session =
  host_call t "migrate_in_commit" (fun () ->
      match find_session t Mig_in session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          | Mig_aborted -> Error Ecall.Bad_state
          | Mig_committed -> begin
              match s.mg_cvm with
              | Some id -> Ok id  (* idempotent *)
              | None -> Error Ecall.Bad_state
            end
          | Mig_active -> begin
              match s.mg_cvm with
              | None -> Error Ecall.Bad_state
              | Some id -> begin
                  match find_cvm t id with
                  | Some cvm when cvm.Cvm.state = Cvm.Migrating_in ->
                      (* Two durable flips; a crash between them would
                         leave a Suspended CVM pinned by an Active
                         session (the §8 audit violation), so both sides
                         of the gap are journal points recovery closes. *)
                      let jr =
                        Journal.append t.journal
                          (Journal.Op_mig_in_commit { session })
                      in
                      cvm.Cvm.state <- Cvm.Suspended;
                      Journal.checkpoint t.journal jr "activated";
                      s.mg_phase <- Mig_committed;
                      Metrics.Registry.inc t.registry "migrate.in_commit";
                      Journal.mark_done t.journal jr;
                      Ok id
                  | _ -> Error Ecall.Bad_state
                end
            end
        end)

let migrate_in_abort t ~session =
  host_call t "migrate_in_abort" (fun () ->
      match find_session t Mig_in session with
      | None -> Error Ecall.Not_found
      | Some s -> begin
          match s.mg_phase with
          (* a destination that voted Prepared and then committed can
             never be talked back out of it *)
          | Mig_committed -> Error Ecall.Bad_state
          | Mig_aborted -> Ok ()
          | Mig_active ->
              let jr =
                Journal.append t.journal (Journal.Op_mig_in_abort { session })
              in
              (match s.mg_cvm with
              | Some id -> ignore (destroy_cvm_impl t ~cvm:id)
              | None -> ());
              Journal.checkpoint t.journal jr "scrubbed";
              s.mg_phase <- Mig_aborted;
              s.mg_cvm <- None;
              Metrics.Registry.inc t.registry "migrate.in_abort";
              Journal.mark_done t.journal jr;
              Ok ()
        end)

type migration_info = {
  mi_role : [ `Out | `In ];
  mi_phase : [ `Active | `Committed | `Aborted ];
  mi_cvm : int option;
  mi_epoch : int;
  mi_blob_tag : string;
  mi_stalls : int;
  mi_budget : int;
}

let migrate_session t ~role ~session =
  let r = match role with `Out -> Mig_out | `In -> Mig_in in
  Option.map
    (fun s ->
      {
        mi_role = role;
        mi_phase =
          (match s.mg_phase with
          | Mig_active -> `Active
          | Mig_committed -> `Committed
          | Mig_aborted -> `Aborted);
        mi_cvm = s.mg_cvm;
        mi_epoch = s.mg_epoch;
        mi_blob_tag = s.mg_blob_tag;
        mi_stalls = s.mg_stalls;
        mi_budget = s.mg_budget;
      })
    (find_session t r session)

let migrate_note_stalls t ~session n =
  host_call t "migrate_note_stalls" (fun () ->
      match find_session t Mig_out session with
      | None -> Error Ecall.Not_found
      | Some s ->
          (* The budget declared at [migrate_out_begin] bounds what an
             honest endpoint can ever report — it aborts rather than
             retry past it. Reject anything outside [0, budget] so a
             hostile host cannot frame an active session as over-budget
             and dirty the audit with SM-recorded garbage. *)
          if n < 0 || n > s.mg_budget then Error Ecall.Invalid_param
          else begin
            if s.mg_phase = Mig_active then s.mg_stalls <- n;
            Ok ()
          end)

(* ---------- guest SBI handling ---------- *)

let gpa_to_pa cvm gpa = Spt.lookup cvm.Cvm.spt ~gpa

(* Guest memory through the CVM's own G-stage table: SM-side CPU
   accesses, so no IOPMP check. [None]/[false] when a page of the range
   is not mapped. *)
let read_guest t cvm ~gpa len =
  Bus.read_gpa t.machine.Machine.bus ~translate:(gpa_to_pa cvm) gpa len

let write_guest t cvm ~gpa data =
  Bus.write_gpa t.machine.Machine.bus ~translate:(gpa_to_pa cvm) gpa data

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
      (* Guest returns a private page to the SM: unmap, scrub, keep it
         for this CVM's future faults (ballooning-style). *)
      let gpa = Xword.align_down a0 4096L in
      if not (Layout.is_private_gpa gpa) then err Ecall.Invalid_param
      else begin
        (* Learn the physical page before the first mutation so the
           intent can name it — recovery re-scrubs by address even when
           the mapping is already gone. *)
        match Spt.lookup cvm.Cvm.spt ~gpa with
        | None -> err Ecall.Not_found
        | Some pa -> begin
            let jr =
              Journal.append t.journal
                (Journal.Op_relinquish { cvm = cvm.Cvm.id; gpa; pa })
            in
            match Spt.unmap_private cvm.Cvm.spt ~gpa with
            | Error _ ->
                Journal.mark_done t.journal jr;
                err Ecall.Not_found
            | Ok pa ->
                Journal.checkpoint t.journal jr "unmapped";
                Physmem.zero_range
                  (Bus.dram t.machine.Machine.bus)
                  (Int64.sub pa Bus.dram_base) 4096L;
                charge t "sm_scrub" t.cost.Cost.page_scrub;
                (* The guest VAs aliasing this page are unknown here
                   (with VS-stage paging a VA need not equal the GPA),
                   and other harts may retain the translation too: shoot
                   down by physical page, scoped to this CVM, on every
                   hart. *)
                Array.iter
                  (fun h ->
                    Tlb.flush_pa ~vmid:cvm.Cvm.id h.Hart.tlb pa;
                    Hart.invalidate_fast_path h)
                  t.machine.Machine.harts;
                charge t "sm_shootdown"
                  (Array.length t.machine.Machine.harts
                  * t.cost.Cost.tlb_vmid_flush);
                Journal.checkpoint t.journal jr "scrubbed";
                (match Hashtbl.find_opt t.freed_pages cvm.Cvm.id with
                | Some r -> r := pa :: !r
                | None -> Hashtbl.add t.freed_pages cvm.Cvm.id (ref [ pa ]));
                Journal.mark_done t.journal jr;
                ok ()
          end
      end
    end
    else if a6 = Ecall.fid_guest_chan_send then begin
      (* a0 = channel id, a1 = source GPA, a2 = length. The SM writes
         the caller's own directional half on its behalf: payload and
         length land before the seq bump that publishes them. (A guest
         may equally store into its mapped half directly — the SM's
         consume-side shadow only ever trusts what Check-after-Load
         admits.) *)
      let len = Int64.to_int a2 in
      if len < 1 || len > Layout.chan_max_msg then err Ecall.Invalid_param
      else begin
        match find_channel t (Int64.to_int a0) with
        | None -> err Ecall.Not_found
        | Some ch ->
            if ch.ch_a <> cvm.Cvm.id && ch.ch_b <> cvm.Cvm.id then
              err Ecall.Denied
            else if ch.ch_phase <> Chan_established then err Ecall.Bad_state
            else begin
              match read_guest t cvm ~gpa:a1 len with
              | None -> err Ecall.Invalid_param
              | Some payload ->
                  let bus = t.machine.Machine.bus in
                  let base = chan_dir_base ch ~from_a:(ch.ch_a = cvm.Cvm.id) in
                  let seq = Bus.read bus base 8 in
                  Bus.write_bytes bus
                    (Int64.add base (Int64.of_int Layout.chan_hdr_size))
                    payload;
                  Bus.write bus (Int64.add base 8L) 8 (Int64.of_int len);
                  Bus.write bus base 8 (Int64.add seq 1L);
                  (* Bulk payload copy: a plain M-mode word copy, not
                     the per-register validated transfer — only the
                     header goes through Check-after-Load. *)
                  charge t "sm_chan"
                    (t.cost.Cost.ecall_roundtrip + Cost.word_copy t.cost len);
                  ok ~value:(Int64.of_int len) ()
            end
      end
    end
    else if a6 = Ecall.fid_guest_chan_recv then begin
      (* a0 = channel id, a1 = destination GPA, a2 = max length. The
         peer-writable half goes through Check-after-Load against the
         SM's delivery shadow; a rejected header is a strike against the
         peer, and the strike budget degrades the channel — never the
         consuming CVM. *)
      match find_channel t (Int64.to_int a0) with
      | None -> err Ecall.Not_found
      | Some ch ->
          if ch.ch_a <> cvm.Cvm.id && ch.ch_b <> cvm.Cvm.id then
            err Ecall.Denied
          else if ch.ch_phase <> Chan_established then err Ecall.Bad_state
          else begin
            let consumer_is_b = ch.ch_b = cvm.Cvm.id in
            let from_a = consumer_is_b in
            let shadow = if consumer_is_b then ch.ch_seq_ab else ch.ch_seq_ba in
            charge t "sm_chan" t.cost.Cost.ecall_roundtrip;
            match chan_check_dir t ch ~from_a ~shadow with
            | Chan_idle -> ok ~value:0L ()
            | Chan_bad verdict ->
                chan_strike t ch ~victim:cvm.Cvm.id verdict;
                err Ecall.Denied
            | Chan_msg (seq, len) ->
                if Int64.of_int len > a2 then err Ecall.Invalid_param
                else begin
                  let bus = t.machine.Machine.bus in
                  let base = chan_dir_base ch ~from_a in
                  let payload =
                    Bus.read_bytes bus
                      (Int64.add base (Int64.of_int Layout.chan_hdr_size))
                      len
                  in
                  if not (write_guest t cvm ~gpa:a1 payload) then
                    err Ecall.Invalid_param
                  else begin
                    if consumer_is_b then ch.ch_seq_ab <- seq
                    else ch.ch_seq_ba <- seq;
                    charge t "sm_chan" (Cost.word_copy t.cost len);
                    ok ~value:(Int64.of_int len) ()
                  end
                end
          end
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

let note_progress t cvm_id =
  Hashtbl.replace t.last_seen cvm_id (Metrics.Ledger.now (ledger t))

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
   Returns [Ok stage] or the exit the fault escalates to. *)
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
  match find_cvm t id with
  | None -> Error Ecall.Not_found
  | Some cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
      Error Ecall.Invalid_param
  | Some cvm -> begin
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
                  Tlb.flush_vmid hart.Hart.tlb id;
                  Hart.invalidate_fast_path hart;
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
                              Tlb.flush_page ~vmid:id hart.Hart.tlb
                                hart.Hart.csr.Csr.mtval;
                              Hart.invalidate_fast_path hart;
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
            Tlb.flush_vmid hart.Hart.tlb cvm.Cvm.id;
            Hart.invalidate_fast_path hart
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

(* After a fault-driven exit the guest's pc was reset to the faulting
   instruction, so on re-entry the retry fault is taken with the
   after-expand stage accounting. We detect that by marking CVMs that
   exited with Need_memory. *)

let get_vcpu_reg t ~cvm:id ~vcpu:vcpu_idx ~reg =
  host_call t "get_vcpu_reg" ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined ->
          Error Ecall.Quarantined
      | Some cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
          Error Ecall.Invalid_param
      | Some cvm -> begin
          match Hashtbl.find_opt t.pending_mmio (id, vcpu_idx) with
          | None -> Error Ecall.No_pending_exit
          | Some mmio ->
              charge t "sm_getreg"
                (t.cost.Cost.ecall_roundtrip + t.cost.Cost.secure_copy_item);
              ignore (Cvm.vcpu cvm vcpu_idx);
              (* Only the value the pending exit legitimately exposes —
                 the store data, requested as register 0 — is readable.
                 Every other register stays secret. *)
              if mmio.Vcpu.mmio_write && reg = 0 then Ok mmio.Vcpu.mmio_data
              else Error Ecall.Denied
        end)

let set_vcpu_reg t ~cvm:id ~vcpu:vcpu_idx ~reg value =
  host_call t "set_vcpu_reg" ~cvm:id (fun () ->
      match find_cvm t id with
      | None -> Error Ecall.Not_found
      | Some cvm when cvm.Cvm.state = Cvm.Quarantined ->
          Error Ecall.Quarantined
      | Some cvm when vcpu_idx < 0 || vcpu_idx >= Cvm.nvcpus cvm ->
          Error Ecall.Invalid_param
      | Some _ -> begin
          match Hashtbl.find_opt t.pending_mmio (id, vcpu_idx) with
          | None -> Error Ecall.No_pending_exit
          | Some mmio ->
              charge t "sm_setreg"
                (t.cost.Cost.ecall_roundtrip + t.cost.Cost.secure_copy_item);
              if mmio.Vcpu.mmio_write then Error Ecall.Denied
              else if reg <> mmio.Vcpu.mmio_reg then Error Ecall.Denied
              else begin
                Hashtbl.replace t.staged_reg (id, vcpu_idx) (reg, value);
                Ok ()
              end
        end)

let shared_vcpu_of t ~cvm:id ~vcpu:vcpu_idx =
  Option.map (fun c -> Cvm.shared_vcpu c vcpu_idx) (find_cvm t id)

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

let cvm_state t ~cvm:id =
  Option.map (fun c -> c.Cvm.state) (find_cvm t id)

let cvm_count t =
  Hashtbl.fold
    (fun _ c n -> if c.Cvm.state <> Cvm.Destroyed then n + 1 else n)
    t.cvms 0

let cvm_measurement t ~cvm:id =
  Option.bind (find_cvm t id) (fun c -> c.Cvm.measurement)

let entry_cycles t = t.entry_hist
let exit_cycles t = t.exit_hist
let fault_log t = t.faults

let alloc_stats t ~cvm:id =
  Option.map (fun c -> c.Cvm.alloc_stats) (find_cvm t id)

let console_output t = Machine.console_output t.machine

let pmp_counters t =
  [
    ("pmp.syncs", Pmp_guard.sync_count t.guard);
    ("pmp.sync_skips", Pmp_guard.sync_skip_count t.guard);
    ("pmp.world_toggles", Pmp_guard.world_toggle_count t.guard);
    ("pmp.world_skips", Pmp_guard.world_skip_count t.guard);
  ]

let audit t =
  let findings = ref [] in
  let checked = ref 0 in
  let fail fmt = Printf.ksprintf (fun m -> findings := m :: !findings) fmt in
  let check b fmt =
    incr checked;
    if b then Printf.ksprintf ignore fmt else fail fmt
  in
  (* 1. Pool closed on every hart (caller runs in Normal mode). *)
  List.iter
    (fun (base, _) ->
      Array.iteri
        (fun i hart ->
          check
            (not (Pmp.check hart.Hart.csr.Csr.pmp Priv.HS Pmp.Read base 8))
            "pool region 0x%Lx is PMP-open to HS on hart %d" base i)
        t.machine.Machine.harts)
    (Secmem.regions t.sm);
  (* 2. Page-ownership exclusivity across all live CVMs. *)
  let live =
    Hashtbl.fold
      (fun _ c acc -> if c.Cvm.state <> Cvm.Destroyed then c :: acc else acc)
      t.cvms []
  in
  let seen_pa = Hashtbl.create 256 in
  (* Channel ring pages are the one sanctioned two-owner exception: the
     channel table, not [page_owner], is their ownership ground truth,
     and §11 pins down exactly which two mappers are legal. *)
  let chan_ring = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ ch ->
      match ch.ch_page with
      | Some pa when chan_live ch -> Hashtbl.replace chan_ring pa ch
      | _ -> ())
    t.channels;
  List.iter
    (fun cvm ->
      Spt.fold_private cvm.Cvm.spt
        (fun ~gpa ~pa () ->
          (match Hashtbl.find_opt chan_ring pa with
          | Some ch ->
              check
                (ch.ch_phase = Chan_established)
                "CVM %d maps ring page 0x%Lx of un-established channel %d"
                cvm.Cvm.id pa ch.ch_id;
              check
                (cvm.Cvm.id = ch.ch_a || cvm.Cvm.id = ch.ch_b)
                "CVM %d maps channel %d ring page 0x%Lx but is not an \
                 endpoint"
                cvm.Cvm.id ch.ch_id pa;
              check (gpa = ch.ch_gpa)
                "CVM %d maps channel %d ring page 0x%Lx at GPA 0x%Lx, \
                 expected slot 0x%Lx"
                cvm.Cvm.id ch.ch_id pa gpa ch.ch_gpa
          | None ->
              check (Secmem.contains t.sm pa)
                "CVM %d maps GPA 0x%Lx to non-secure PA 0x%Lx" cvm.Cvm.id
                gpa pa;
              check
                (Hashtbl.find_opt t.page_owner pa = Some cvm.Cvm.id)
                "CVM %d maps PA 0x%Lx it does not own" cvm.Cvm.id pa;
              (match Hashtbl.find_opt seen_pa pa with
              | Some other ->
                  fail "PA 0x%Lx backs both CVM %d and CVM %d" pa other
                    cvm.Cvm.id
              | None -> Hashtbl.add seen_pa pa cvm.Cvm.id));
          incr checked)
        ())
    live;
  (* 3. No CVM's page-table pages are guest-mapped anywhere. *)
  let table_pages = Hashtbl.create 64 in
  List.iter
    (fun cvm ->
      Hashtbl.replace table_pages (Spt.root cvm.Cvm.spt) cvm.Cvm.id;
      List.iter
        (fun pa -> Hashtbl.replace table_pages pa cvm.Cvm.id)
        (Spt.table_pages cvm.Cvm.spt))
    live;
  Hashtbl.iter
    (fun pa owner ->
      incr checked;
      match Hashtbl.find_opt table_pages pa with
      | Some table_owner ->
          fail "page-table page 0x%Lx of CVM %d is guest-mapped by CVM %d"
            pa table_owner owner
      | None -> ())
    seen_pa;
  (* 4. Shared subtrees never reference secure memory. *)
  List.iter
    (fun cvm ->
      incr checked;
      match Spt.validate_shared cvm.Cvm.spt ~is_secure:(Secmem.contains t.sm) with
      | Ok _ -> ()
      | Error msg -> fail "CVM %d shared subtree: %s" cvm.Cvm.id msg)
    live;
  (* 5. Allocator structural invariants. *)
  incr checked;
  (match Secmem.check_invariants t.sm with
  | Ok () -> ()
  | Error msg -> fail "secure memory list: %s" msg);
  (* 6. No owned page lies inside a block the allocator considers free
     (region bases are block-aligned, so the containing block's base is
     just the page rounded down to the block size). *)
  let blk = Secmem.block_size t.sm in
  let free_bases = Hashtbl.create 64 in
  List.iter
    (fun b -> Hashtbl.replace free_bases b ())
    (Secmem.free_list_bases t.sm);
  Hashtbl.iter
    (fun pa owner ->
      incr checked;
      let base = Int64.mul (Int64.div pa blk) blk in
      if Hashtbl.mem free_bases base then
        fail "PA 0x%Lx owned by CVM %d lies in free block 0x%Lx" pa owner
          base)
    t.page_owner;
  (* 7. Secure vCPU state of every parked CVM matches its seal: nothing
     outside the SM's own world switch has touched it. *)
  List.iter
    (fun cvm ->
      if cvm.Cvm.state <> Cvm.Running then
        for i = 0 to Cvm.nvcpus cvm - 1 do
          incr checked;
          match Hashtbl.find_opt t.vcpu_seal (cvm.Cvm.id, i) with
          | None -> fail "CVM %d vCPU %d has no seal" cvm.Cvm.id i
          | Some sealed ->
              if vcpu_checksum (Cvm.vcpu cvm i) <> sealed then
                fail "CVM %d vCPU %d secure state diverges from its seal"
                  cvm.Cvm.id i
        done)
    live;
  (* 8. Migration-session ownership. An active session pins its CVM in
     the matching Migrating state; a committed out-session left the
     source scrubbed; a committed in-session activated its CVM; aborted
     sessions stranded no lock; every migrating CVM is pinned by exactly
     one active session; no source overran its retry budget. *)
  let mig_owner = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key s ->
      let role = match s.mg_role with Mig_out -> "out" | Mig_in -> "in" in
      let state_of id =
        Option.map (fun c -> c.Cvm.state) (find_cvm t id)
      in
      (match (s.mg_phase, s.mg_cvm) with
      | Mig_active, Some id -> begin
          incr checked;
          (match Hashtbl.find_opt mig_owner id with
          | Some other ->
              fail "CVM %d pinned by migration sessions %s and %s" id other
                key
          | None -> Hashtbl.add mig_owner id key);
          let want =
            match s.mg_role with
            | Mig_out -> Cvm.Migrating_out
            | Mig_in -> Cvm.Migrating_in
          in
          match state_of id with
          | None ->
              fail "active %s-session %s references unknown CVM %d" role key
                id
          | Some st when st <> want ->
              fail "active %s-session %s: CVM %d is %s, expected %s" role
                key id
                (Cvm.state_to_string st)
                (Cvm.state_to_string want)
          | Some _ -> ()
        end
      | Mig_active, None ->
          incr checked;
          if s.mg_role = Mig_out then
            fail "active out-session %s has no CVM" key
      | Mig_committed, cvm_opt -> begin
          incr checked;
          match (s.mg_role, cvm_opt) with
          | Mig_out, Some id -> begin
              match state_of id with
              | Some st when st <> Cvm.Destroyed ->
                  fail "committed out-session %s left source CVM %d %s" key
                    id (Cvm.state_to_string st)
              | _ -> ()
            end
          | Mig_out, None -> ()
          | Mig_in, Some id -> begin
              match state_of id with
              | Some Cvm.Migrating_in ->
                  fail "committed in-session %s: CVM %d still prepared" key
                    id
              | None ->
                  fail "committed in-session %s: CVM %d missing" key id
              | Some _ -> ()
            end
          | Mig_in, None -> fail "committed in-session %s has no CVM" key
        end
      | Mig_aborted, Some id -> begin
          incr checked;
          match (s.mg_role, state_of id) with
          | Mig_out, Some Cvm.Migrating_out ->
              fail "aborted out-session %s left CVM %d locked" key id
          | Mig_in, Some st when st <> Cvm.Destroyed ->
              fail "aborted in-session %s left CVM %d %s" key id
                (Cvm.state_to_string st)
          | _ -> ()
        end
      | Mig_aborted, None -> ());
      if s.mg_role = Mig_out && s.mg_phase = Mig_active then begin
        incr checked;
        if s.mg_stalls > s.mg_budget then
          fail "out-session %s exceeded its retry budget (%d > %d)" key
            s.mg_stalls s.mg_budget
      end)
    t.sessions;
  List.iter
    (fun cvm ->
      match cvm.Cvm.state with
      | Cvm.Migrating_out | Cvm.Migrating_in ->
          incr checked;
          if not (Hashtbl.mem mig_owner cvm.Cvm.id) then
            fail "CVM %d is %s with no active migration session" cvm.Cvm.id
              (Cvm.state_to_string cvm.Cvm.state)
      | _ -> ())
    live;
  (* 9. TLB coherence. With VMID-tagged retention a translation can
     outlive the switch that installed it, so precision bugs surface
     here: no hart may cache an entry targeting a free secure block, a
     secure page its CVM no longer maps (scrubbed / relinquished), or
     secure memory at all under a VMID that belongs to no runnable CVM
     (host, normal VMs, quarantined, destroyed or migrated-out
     guests). *)
  let mapped_pa = Hashtbl.create 256 in
  List.iter
    (fun cvm ->
      Spt.fold_private cvm.Cvm.spt
        (fun ~gpa:_ ~pa () -> Hashtbl.replace mapped_pa (cvm.Cvm.id, pa) ())
        ())
    live;
  let live_by_id = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace live_by_id c.Cvm.id c) live;
  Array.iteri
    (fun i hart ->
      Tlb.fold hart.Hart.tlb
        (fun ~asid:_ ~vmid ~vpage entry () ->
          incr checked;
          let pa = entry.Tlb.pa_page in
          if Secmem.contains t.sm pa then begin
            let base = Int64.mul (Int64.div pa blk) blk in
            if Hashtbl.mem free_bases base then
              fail
                "hart %d TLB: vmid %d vpage 0x%Lx targets PA 0x%Lx in \
                 free block 0x%Lx"
                i vmid vpage pa base
            else
              match Hashtbl.find_opt live_by_id vmid with
              | None ->
                  fail
                    "hart %d TLB: vmid %d (no live CVM) still translates \
                     vpage 0x%Lx to secure PA 0x%Lx"
                    i vmid vpage pa
              | Some c when c.Cvm.state = Cvm.Quarantined ->
                  fail
                    "hart %d TLB: quarantined CVM %d still translates \
                     vpage 0x%Lx to secure PA 0x%Lx"
                    i vmid vpage pa
              | Some c ->
                  if not (Hashtbl.mem mapped_pa (c.Cvm.id, pa)) then
                    fail
                      "hart %d TLB: CVM %d caches vpage 0x%Lx -> PA \
                       0x%Lx it no longer maps"
                      i vmid vpage pa
          end)
        ())
    t.machine.Machine.harts;
  (* 10. SWIOTLB / bounce hygiene. Every page of the bounce window —
     descriptor page, exitless ring page, bounce slots — is host
     territory by construction, so wherever a live CVM's shared
     subtree maps one, the backing PA must be outside the secure pool
     and unaccounted to any CVM; and no two SWIOTLB pages of one CVM
     may share a PA (an aliased bounce slot hands the same buffer to
     two concurrent requests). *)
  let swiotlb_gpas = Layout.swiotlb_page_gpas () in
  List.iter
    (fun cvm ->
      let seen_bounce = Hashtbl.create 67 in
      List.iter
        (fun gpa ->
          match Spt.lookup cvm.Cvm.spt ~gpa with
          | None -> ()
          | Some pa ->
              check
                (not (Secmem.contains t.sm pa))
                "CVM %d bounce page GPA 0x%Lx aliases secure PA 0x%Lx"
                cvm.Cvm.id gpa pa;
              check
                (not (Hashtbl.mem t.page_owner pa))
                "CVM %d bounce page GPA 0x%Lx aliases owned private PA \
                 0x%Lx"
                cvm.Cvm.id gpa pa;
              (match Hashtbl.find_opt seen_bounce pa with
              | Some other ->
                  fail
                    "CVM %d bounce pages GPA 0x%Lx and GPA 0x%Lx alias \
                     the same PA 0x%Lx"
                    cvm.Cvm.id other gpa pa
              | None -> Hashtbl.add seen_bounce pa gpa);
              incr checked)
        swiotlb_gpas)
    live;
  (* 11. Channel ownership. A live channel's ring page lies inside the
     secure pool (so §1's PMP closure keeps it host-unreachable),
     belongs to no CVM in [page_owner], sits in no free block, and is
     mapped at the slot GPA by exactly its two endpoints iff the
     channel is established — by nobody while merely offered. No live
     channel may keep a destroyed or quarantined endpoint reachable,
     and a dead channel holds no page at all. *)
  Hashtbl.iter
    (fun _ ch ->
      match (ch.ch_phase, ch.ch_page) with
      | (Chan_offered | Chan_established), None ->
          fail "live channel %d holds no ring page" ch.ch_id
      | (Chan_offered | Chan_established), Some pa ->
          check (Secmem.contains t.sm pa)
            "channel %d ring page 0x%Lx lies outside the secure pool"
            ch.ch_id pa;
          check
            (not (Hashtbl.mem t.page_owner pa))
            "channel %d ring page 0x%Lx is also CVM-owned" ch.ch_id pa;
          let base = Int64.mul (Int64.div pa blk) blk in
          check
            (not (Hashtbl.mem free_bases base))
            "channel %d ring page 0x%Lx lies in free block 0x%Lx" ch.ch_id
            pa base;
          List.iter
            (fun id ->
              incr checked;
              match find_cvm t id with
              | None -> fail "channel %d endpoint CVM %d missing" ch.ch_id id
              | Some c -> (
                  match c.Cvm.state with
                  | Cvm.Destroyed | Cvm.Quarantined ->
                      fail "live channel %d endpoint CVM %d is %s" ch.ch_id
                        id
                        (Cvm.state_to_string c.Cvm.state)
                  | _ -> ()))
            [ ch.ch_a; ch.ch_b ];
          let maps id =
            match find_cvm t id with
            | Some c when c.Cvm.state <> Cvm.Destroyed ->
                Spt.lookup c.Cvm.spt ~gpa:ch.ch_gpa = Some pa
            | _ -> false
          in
          (match ch.ch_phase with
          | Chan_established ->
              check
                (maps ch.ch_a && maps ch.ch_b)
                "established channel %d is not mapped by both endpoints"
                ch.ch_id
          | _ ->
              check
                ((not (maps ch.ch_a)) && not (maps ch.ch_b))
                "offered channel %d ring page 0x%Lx is already mapped"
                ch.ch_id pa)
      | (Chan_revoked | Chan_degraded), Some pa ->
          fail "dead channel %d still holds ring page 0x%Lx" ch.ch_id pa
      | (Chan_revoked | Chan_degraded), None -> incr checked)
    t.channels;
  if !findings = [] then Ok !checked else Error (List.rev !findings)

(* ---------- crash consistency: reboot + journal recovery ---------- *)

let journal t = t.journal

(* Model a host/SM crash on the same monitor value: everything volatile
   — hart CSRs (PMP, TLB, delegation, translation roots), the IOPMP's
   device registers, the guard's epoch caches, and the SM's scratch
   tables — is wiped; everything durable (secure-NVRAM model: the pool
   list, the CVM table, page ownership, sessions, seals, freed-page
   pools, the journal itself) survives untouched. *)
let crash_reboot t =
  Journal.disarm t.journal;
  Array.iteri
    (fun i hart ->
      let csr = hart.Hart.csr in
      for e = 0 to 15 do
        Pmp.clear csr.Csr.pmp e
      done;
      Tlb.flush_all hart.Hart.tlb;
      Hart.invalidate_fast_path hart;
      csr.Csr.satp <- 0L;
      csr.Csr.hgatp <- 0L;
      csr.Csr.medeleg <- 0L;
      csr.Csr.mideleg <- 0L;
      csr.Csr.hedeleg <- 0L;
      csr.Csr.hideleg <- 0L;
      hart.Hart.mode <- Priv.M;
      hart.Hart.pc <- 0L;
      let h = t.host.(i) in
      h.h_satp <- 0L;
      h.h_hgatp <- 0L;
      h.h_medeleg <- Deleg_policy.normal_medeleg;
      h.h_mideleg <- Deleg_policy.normal_mideleg;
      h.h_hedeleg <- Deleg_policy.normal_hedeleg;
      h.h_hideleg <- Deleg_policy.normal_hideleg;
      h.h_mode <- Priv.HS;
      h.h_pc <- 0L)
    t.machine.Machine.harts;
  Pmp_guard.reset t.guard;
  (* IOPMP config registers reset to the deny-by-default power-on
     state: standing deny entries and the permissive default are gone
     until [recover] reprograms them. *)
  let iopmp = Bus.iopmp t.machine.Machine.bus in
  List.iter
    (fun (base, size) -> Iopmp.remove_deny iopmp ~base ~size)
    (Secmem.regions t.sm);
  Iopmp.allow_all_default iopmp false;
  Hashtbl.reset t.pending_mmio;
  Hashtbl.reset t.expand_retry;
  Hashtbl.reset t.staged_reg;
  Hashtbl.reset t.last_seen;
  Metrics.Registry.inc t.registry "sm.crash_reboot"

type recovery_report = {
  rr_pending : int;
  rr_rolled_forward : int;
  rr_rolled_back : int;
  rr_parked : int;
  rr_pmp_synced : int;
  rr_detail : string list;
}

let pinned_by_active_out_session t id =
  Hashtbl.fold
    (fun _ s acc ->
      acc
      || (s.mg_role = Mig_out && s.mg_phase = Mig_active
         && s.mg_cvm = Some id))
    t.sessions false

(* Replay one pending record. Every branch is idempotent: recovery may
   itself crash at any of the journal points it emits, and the next
   recovery replays the same record again. Checkpoints/completion marks
   are written by [recover], not here (except destroy_replay's own). *)
let replay_record t ~note ~fwd ~back (r : Journal.record) =
  match r.Journal.op with
  | Journal.Op_create { cvm = id; block_base; nvcpus = _ } -> (
      incr back;
      (* Never mint the journaled id again, even though the op dies. *)
      if t.next_cvm_id <= id then t.next_cvm_id <- id + 1;
      match find_cvm t id with
      | Some cvm ->
          note
            (Printf.sprintf "create #%d: rolled back half-built CVM %d"
               r.Journal.seq id);
          destroy_replay ~record:r t cvm
      | None ->
          (* The block may have been popped without the CVM ever
             reaching the table: scrub the orphan and re-link it. *)
          if
            Secmem.contains t.sm block_base
            && not (Secmem.is_free_base t.sm block_base)
          then begin
            Physmem.zero_range
              (Bus.dram t.machine.Machine.bus)
              (Int64.sub block_base Bus.dram_base)
              (Secmem.block_size t.sm);
            ignore (Hier_alloc.reclaim_base t.sm ~base:block_base);
            note
              (Printf.sprintf
                 "create #%d: reclaimed orphaned block 0x%Lx" r.Journal.seq
                 block_base)
          end)
  | Journal.Op_load { cvm = id; _ } -> (
      incr back;
      match find_cvm t id with
      | Some cvm when cvm.Cvm.state = Cvm.Created ->
          (* The measurement is torn mid-extend and can never seal to
             anything attestable: scrub the instance, let the host
             rebuild it from the original image. *)
          note
            (Printf.sprintf "load #%d: rolled back torn CVM %d"
               r.Journal.seq id);
          destroy_replay ~record:r t cvm
      | _ -> ())
  | Journal.Op_expand { base; size } ->
      if List.exists (fun r' -> r' = (base, size)) (Secmem.regions t.sm)
      then begin
        incr fwd;
        (* The region is durably linked; the global PMP/IOPMP resync
           that recovery always performs finishes the registration. *)
        note
          (Printf.sprintf "expand #%d: region 0x%Lx kept (PMP resynced)"
             r.Journal.seq base)
      end
      else begin
        incr back;
        note
          (Printf.sprintf "expand #%d: region 0x%Lx never linked; dropped"
             r.Journal.seq base)
      end
  | Journal.Op_relinquish { cvm = id; gpa; pa } -> (
      match find_cvm t id with
      | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
          incr fwd;
          (match Spt.lookup cvm.Cvm.spt ~gpa with
          | Some pa' when pa' = pa ->
              ignore (Spt.unmap_private cvm.Cvm.spt ~gpa)
          | _ -> ());
          Physmem.zero_range
            (Bus.dram t.machine.Machine.bus)
            (Int64.sub pa Bus.dram_base) 4096L;
          Journal.checkpoint t.journal r "scrubbed";
          (* TLBs are empty after the reboot, so no shootdown is owed;
             just make sure the page lands in the freed pool exactly
             once. *)
          let lst =
            match Hashtbl.find_opt t.freed_pages id with
            | Some l -> l
            | None ->
                let l = ref [] in
                Hashtbl.add t.freed_pages id l;
                l
          in
          if not (List.mem pa !lst) then lst := pa :: !lst;
          note
            (Printf.sprintf
               "relinquish #%d: CVM %d page 0x%Lx scrubbed and pooled"
               r.Journal.seq id pa)
      | _ -> incr back)
  | Journal.Op_destroy { cvm = id } -> (
      incr fwd;
      match find_cvm t id with
      | Some cvm ->
          note
            (Printf.sprintf "destroy #%d: finished scrubbing CVM %d"
               r.Journal.seq id);
          destroy_replay ~record:r t cvm
      | None -> ())
  | Journal.Op_quarantine { cvm = id; reason } -> (
      incr fwd;
      match find_cvm t id with
      | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
          if cvm.Cvm.state <> Cvm.Quarantined then
            Metrics.Registry.inc t.registry "cvm.quarantined";
          cvm.Cvm.state <- Cvm.Quarantined;
          cvm.Cvm.quarantine_reason <- Some reason;
          Spt.clear_shared_root cvm.Cvm.spt;
          chan_sweep_for t id ~reason:"endpoint quarantined";
          note
            (Printf.sprintf "quarantine #%d: CVM %d re-parked"
               r.Journal.seq id)
      | _ -> ())
  | Journal.Op_mig_out_begin { session; cvm = id } -> (
      match find_session t Mig_out session with
      | Some s ->
          incr fwd;
          (match (s.mg_phase, find_cvm t id) with
          | Mig_active, Some cvm
            when cvm.Cvm.state = Cvm.Suspended
                 || cvm.Cvm.state = Cvm.Runnable ->
              cvm.Cvm.state <- Cvm.Migrating_out;
              note
                (Printf.sprintf "out-begin #%d: re-locked CVM %d"
                   r.Journal.seq id)
          | _ -> ())
      | None -> (
          incr back;
          (* The lock landed but the session record did not: release the
             CVM — the host never learned a session existed. *)
          match find_cvm t id with
          | Some cvm
            when cvm.Cvm.state = Cvm.Migrating_out
                 && not (pinned_by_active_out_session t id) ->
              cvm.Cvm.state <- Cvm.Suspended;
              note
                (Printf.sprintf "out-begin #%d: released CVM %d"
                   r.Journal.seq id)
          | _ -> ()))
  | Journal.Op_mig_out_abort { session } -> (
      incr fwd;
      match find_session t Mig_out session with
      | Some s when s.mg_phase <> Mig_committed ->
          (match s.mg_cvm with
          | Some id -> (
              match find_cvm t id with
              | Some cvm when cvm.Cvm.state = Cvm.Migrating_out ->
                  cvm.Cvm.state <- Cvm.Suspended
              | _ -> ())
          | None -> ());
          s.mg_phase <- Mig_aborted;
          note
            (Printf.sprintf "out-abort #%d: session %s aborted"
               r.Journal.seq session)
      | _ -> ())
  | Journal.Op_mig_out_commit { session } -> (
      incr fwd;
      match find_session t Mig_out session with
      | Some s when s.mg_phase <> Mig_aborted ->
          s.mg_phase <- Mig_committed;
          Journal.checkpoint t.journal r "committed";
          (match s.mg_cvm with
          | Some id -> (
              match find_cvm t id with
              | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
                  destroy_replay ~record:r t cvm
              | _ -> ())
          | None -> ());
          note
            (Printf.sprintf
               "out-commit #%d: session %s committed, source scrubbed"
               r.Journal.seq session)
      | _ -> ())
  | Journal.Op_mig_in_prepare p -> (
      incr back;
      (match p.built with
      | Some id -> (
          match find_cvm t id with
          | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
              note
                (Printf.sprintf
                   "in-prepare #%d: rolled back half-restored CVM %d"
                   r.Journal.seq id);
              destroy_replay ~record:r t cvm
          | _ -> ())
      | None -> ());
      match find_session t Mig_in p.session with
      | Some s when s.mg_phase = Mig_active -> (
          (* the session may still point at an instance that no longer
             exists (re-prepare destroyed the old one mid-swap) *)
          match s.mg_cvm with
          | Some id
            when (match find_cvm t id with
                 | Some c -> c.Cvm.state = Cvm.Destroyed
                 | None -> true) ->
              s.mg_cvm <- None
          | _ -> ())
      | _ -> ())
  | Journal.Op_mig_in_commit { session } -> (
      incr fwd;
      match find_session t Mig_in session with
      | Some s when s.mg_phase = Mig_active -> (
          match s.mg_cvm with
          | Some id -> (
              match find_cvm t id with
              | Some cvm when cvm.Cvm.state = Cvm.Migrating_in ->
                  cvm.Cvm.state <- Cvm.Suspended;
                  Journal.checkpoint t.journal r "activated";
                  s.mg_phase <- Mig_committed;
                  note
                    (Printf.sprintf "in-commit #%d: CVM %d activated"
                       r.Journal.seq id)
              | Some cvm when cvm.Cvm.state = Cvm.Suspended ->
                  s.mg_phase <- Mig_committed;
                  note
                    (Printf.sprintf
                       "in-commit #%d: session %s marked committed"
                       r.Journal.seq session)
              | _ -> ())
          | None -> ())
      | _ -> ())
  | Journal.Op_mig_in_abort { session } -> (
      incr fwd;
      match find_session t Mig_in session with
      | Some s when s.mg_phase <> Mig_committed ->
          (match s.mg_cvm with
          | Some id -> (
              match find_cvm t id with
              | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
                  destroy_replay ~record:r t cvm
              | _ -> ())
          | None -> ());
          s.mg_phase <- Mig_aborted;
          s.mg_cvm <- None;
          note
            (Printf.sprintf "in-abort #%d: session %s aborted"
               r.Journal.seq session)
      | _ -> ())
  | Journal.Op_chan_grant { chan; a = _; b = _; block_base } -> (
      incr back;
      (* Channel ids double as slot indices: never mint this one
         again. *)
      if t.next_chan_id <= chan then t.next_chan_id <- chan + 1;
      match find_channel t chan with
      | Some ch ->
          note
            (Printf.sprintf "chan-grant #%d: rolled back torn offer %d"
               r.Journal.seq chan);
          chan_teardown t ch ~phase:Chan_revoked ~reason:"offer rolled back"
      | None ->
          (* The ring block may have been popped without the channel
             ever reaching the table: scrub the orphan and re-link
             it. *)
          if
            Secmem.contains t.sm block_base
            && not (Secmem.is_free_base t.sm block_base)
          then begin
            Physmem.zero_range
              (Bus.dram t.machine.Machine.bus)
              (Int64.sub block_base Bus.dram_base)
              (Secmem.block_size t.sm);
            ignore (Hier_alloc.reclaim_base t.sm ~base:block_base);
            note
              (Printf.sprintf
                 "chan-grant #%d: reclaimed orphaned ring block 0x%Lx"
                 r.Journal.seq block_base)
          end)
  | Journal.Op_chan_accept { chan } -> (
      incr back;
      match find_channel t chan with
      | Some ch when chan_live ch ->
          (* Roll back to the offered state: the accepting side never
             learned the establishment happened, so whichever of the two
             map installs landed is removed again. TLBs are cold after
             the reboot — no shootdown is owed. *)
          (match ch.ch_page with
          | Some pa ->
              let unmap id =
                match find_cvm t id with
                | Some c when c.Cvm.state <> Cvm.Destroyed -> (
                    match Spt.lookup c.Cvm.spt ~gpa:ch.ch_gpa with
                    | Some pa' when pa' = pa ->
                        ignore (Spt.unmap_private c.Cvm.spt ~gpa:ch.ch_gpa)
                    | _ -> ())
                | _ -> ()
              in
              unmap ch.ch_a;
              unmap ch.ch_b
          | None -> ());
          ch.ch_phase <- Chan_offered;
          ch.ch_seq_ab <- 0L;
          ch.ch_seq_ba <- 0L;
          ch.ch_strikes <- 0;
          note
            (Printf.sprintf
               "chan-accept #%d: rolled channel %d back to offered"
               r.Journal.seq chan)
      | _ -> ())
  | Journal.Op_chan_revoke { chan; degraded } -> (
      incr fwd;
      match find_channel t chan with
      | Some ch when chan_live ch ->
          let phase = if degraded then Chan_degraded else Chan_revoked in
          chan_teardown t ch ~phase
            ~reason:
              (if degraded then "degraded (recovery replay)"
               else "revoked (recovery replay)");
          note
            (Printf.sprintf "chan-revoke #%d: finished tearing down %d"
               r.Journal.seq chan)
      | _ -> ())

let recover t =
  let detail = ref [] in
  let note m = detail := m :: !detail in
  let fwd = ref 0 and back = ref 0 in
  let observing = obs t in
  if observing then Metrics.Trace.span_begin t.trace "sm.recover";
  (* 1. Rebuild the volatile security state from durable ground truth:
     boot-equivalent delegation, PMP closure over every registered
     region, IOPMP denies, and cold TLBs on every hart. *)
  let synced = ref 0 in
  Array.iter
    (fun hart ->
      Deleg_policy.apply_normal hart;
      if Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false then
        incr synced;
      hart.Hart.mode <- Priv.HS;
      Tlb.flush_all hart.Hart.tlb;
      Hart.invalidate_fast_path hart)
    t.machine.Machine.harts;
  let iopmp = Bus.iopmp t.machine.Machine.bus in
  Iopmp.allow_all_default iopmp true;
  Pmp_guard.guard_iopmp t.guard iopmp t.sm;
  charge t "sm_recover"
    ((!synced * t.cost.Cost.pmp_toggle) + t.cost.Cost.pmp_toggle
    + (Array.length t.machine.Machine.harts * t.cost.Cost.tlb_full_flush));
  (* 2. Park anything the crash caught mid-run. The secure vCPU image
     is only written at world-switch-out, so the seal taken at the last
     legitimate exit (or at creation) still matches — parking is safe
     without re-sealing. *)
  let parked = ref 0 in
  Hashtbl.iter
    (fun _ cvm ->
      if cvm.Cvm.state = Cvm.Running then begin
        cvm.Cvm.state <- Cvm.Suspended;
        incr parked;
        note (Printf.sprintf "parked CVM %d (was Running)" cvm.Cvm.id)
      end)
    t.cvms;
  (* 3. Replay every pending intent in sequence order. A record is
     marked done only after its replay completed, so a crash during
     recovery (the replay's own journal points) re-replays it. *)
  let pending = Journal.pending t.journal in
  List.iter
    (fun r ->
      replay_record t ~note ~fwd ~back r;
      Journal.mark_done t.journal r)
    pending;
  Journal.compact t.journal;
  Metrics.Registry.inc t.registry "sm.recover";
  Metrics.Registry.inc t.registry ~by:!fwd "sm.recover.rolled_forward";
  Metrics.Registry.inc t.registry ~by:!back "sm.recover.rolled_back";
  if observing then
    Metrics.Trace.span_end t.trace
      ~args:
        [
          ("pending", string_of_int (List.length pending));
          ("forward", string_of_int !fwd);
          ("back", string_of_int !back);
        ]
      "sm.recover";
  {
    rr_pending = List.length pending;
    rr_rolled_forward = !fwd;
    rr_rolled_back = !back;
    rr_parked = !parked;
    rr_pmp_synced = !synced;
    rr_detail = List.rev !detail;
  }
