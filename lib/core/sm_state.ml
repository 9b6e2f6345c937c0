(* The Secure Monitor's shared state: the one record every feature
   module works on, the host-call boundary, and the helpers that own the
   CVM table, page ownership and vCPU seals. Each feature table in the
   record (channels, migration sessions, pending exits) is written only
   by its feature's module; the CVM table and page ownership only
   through the functions below. *)

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
          ends of a loopback migration; written by [Sm_migrate] *)
  journal : Journal.t;
      (** write-ahead intent journal: every multi-step transition
          records an intent before its first durable mutation, so
          [recover] can roll a crashed operation forward or back *)
  mutable next_cvm_id : int;
  channels : (int, channel) Hashtbl.t;
  mutable next_chan_id : int;
      (** channel ids double as slot indices in the channel GPA window,
          so they are never reused — recovery bumps past journaled ids.
          Both written by [Sm_chan] *)
  host : host_ctx array;
  pending_mmio : (int * int, Vcpu.mmio) Hashtbl.t;
  expand_retry : (int * int, unit) Hashtbl.t;
      (** vCPUs whose next private fault is a stage-3 retry *)
  staged_reg : (int * int, int * int64) Hashtbl.t;
      (** SET_REG value awaiting Check-after-Load, unshared mode. The
          host contexts and these three tables are written by [Sm_run] *)
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
  mutable orphan_sessions : int -> unit;
      (** folds the active migration sessions of a CVM that destroy just
          scrubbed to aborted. Migration builds on create and destroy, so
          destroy reaches [Sm_migrate]'s fold through this field, which
          [Monitor.create] fills *)
}

let fresh_host_ctx () =
  {
    h_satp = 0L;
    h_hgatp = 0L;
    h_medeleg = Deleg_policy.normal_medeleg;
    h_mideleg = Deleg_policy.normal_mideleg;
    h_hedeleg = Deleg_policy.normal_hedeleg;
    h_hideleg = Deleg_policy.normal_hideleg;
    h_mode = Priv.HS;
    h_pc = 0L;
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
      host = Array.init nharts (fun _ -> fresh_host_ctx ());
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
      orphan_sessions = ignore;
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
let journal t = t.journal
let ledger t = t.machine.Machine.ledger
let charge t cat cycles = Metrics.Ledger.charge (ledger t) cat cycles
let trace t = t.trace
let registry t = t.registry

(* Observability is recorded only while the flight recorder is switched
   on, so the disabled-path cost of every instrumentation site is one
   load and branch. *)
let obs t = Metrics.Trace.is_enabled t.trace

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

let ( let* ) = Result.bind
let find_cvm t id = Hashtbl.find_opt t.cvms id

(* The guards that open the host calls: an id the host names must exist
   in [tbl], and a quarantined CVM accepts nothing but [destroy_cvm].
   Each allocates only the [Ok] that [Hashtbl.find_opt]'s [Some] would.
   Host calls [match] on them: binding one with [let*] would allocate a
   closure on every create, destroy and world switch. *)
let found tbl key =
  match Hashtbl.find tbl key with
  | x -> Ok x
  | exception Not_found -> Error Ecall.Not_found

let usable_cvm t id =
  match found t.cvms id with
  | Ok cvm when cvm.Cvm.state = Cvm.Quarantined -> Error Ecall.Quarantined
  | r -> r

(* Finalized and not parked for good: a channel may join such a CVM, and
   the stall detector watches it. *)
let live_state (cvm : Cvm.t) =
  match cvm.Cvm.state with
  | Cvm.Runnable | Cvm.Running | Cvm.Suspended -> true
  | _ -> false

(* A progress checkpoint on [record], when the caller runs inside one. *)
let checkpoint ?record t label =
  match record with
  | Some r -> Journal.checkpoint t.journal r label
  | None -> ()

(* Zero [len] bytes of secure memory at physical address [pa]. *)
let scrub t pa len =
  Physmem.zero_range (Bus.dram t.machine.Machine.bus)
    (Int64.sub pa Bus.dram_base) len

(* Run the TLB flush [flush] on every hart, with its fast-path memos. *)
let fence_all t flush =
  let harts = t.machine.Machine.harts in
  for i = 0 to Array.length harts - 1 do
    Hart.fence harts.(i) flush
  done

(* Precise cross-hart shootdown: drop one VMID's translations from every
   hart's TLB — the VMID-tagged hfence.gvma. Used wherever a whole
   guest-physical space dies at once (destroy, quarantine, migrate-out
   commit): any hart may hold retained entries for the CVM, and those
   must not outlive its pages. Charged per hart actually fenced. *)
let shootdown_vmid t ~vmid ~reason =
  let harts = Array.length t.machine.Machine.harts in
  fence_all t (fun tlb -> Tlb.flush_vmid tlb vmid);
  charge t "sm_shootdown" (harts * t.cost.Cost.tlb_vmid_flush);
  if obs t then begin
    Metrics.Registry.inc t.registry ~by:harts "tlb.vmid_flush";
    Metrics.Trace.instant t.trace
      ~args:[ ("vmid", string_of_int vmid); ("reason", reason) ]
      "tlb.shootdown"
  end

(* ---------- vCPU seals ---------- *)

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

let drop_seals t cvm =
  for v = 0 to Cvm.nvcpus cvm - 1 do
    Hashtbl.remove t.vcpu_seal (cvm.Cvm.id, v)
  done

(* ---------- CVM table and page ownership ---------- *)

(* Never mint [id] again: creation and its recovery both call this. *)
let reserve_cvm_id t id = if t.next_cvm_id <= id then t.next_cvm_id <- id + 1
let add_cvm t cvm = Hashtbl.replace t.cvms cvm.Cvm.id cvm

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
      scrub t pa 4096L;
      match Spt.map_private cvm.Cvm.spt ~gpa ~pa ~writable:true with
      | Error e -> Error (`Map_error e)
      | Ok () ->
          Hashtbl.replace t.page_owner pa cvm.Cvm.id;
          Ok (pa, stage)
    end

(* A relinquished page joins its CVM's freed pool, at most once. *)
let pool_freed t id pa =
  match Hashtbl.find_opt t.freed_pages id with
  | Some l -> if not (List.mem pa !l) then l := pa :: !l
  | None -> Hashtbl.add t.freed_pages id (ref [ pa ])

let drop_freed t id = Hashtbl.remove t.freed_pages id

(* Scrub every page [id] owns and drop its ownership. *)
let disown_pages t id =
  let price = t.cost.Cost.page_scrub in
  Hashtbl.iter
    (fun pa owner ->
      if owner = id then begin
        scrub t pa 4096L;
        charge t "sm_scrub" price
      end)
    t.page_owner;
  Hashtbl.filter_map_inplace
    (fun _ owner -> if owner = id then None else Some owner)
    t.page_owner

(* Recovery of a torn create or grant: the pool block journaled at
   [base] may have been popped without its owner ever reaching a table.
   Scrub such an orphan and re-link it; [true] if there was one. *)
let reclaim_orphan_block t base =
  let orphan =
    Secmem.contains t.sm base && not (Secmem.is_free_base t.sm base)
  in
  if orphan then begin
    scrub t base (Secmem.block_size t.sm);
    ignore (Hier_alloc.reclaim_base t.sm ~base)
  end;
  orphan

let note_progress t cvm_id =
  Hashtbl.replace t.last_seen cvm_id (Metrics.Ledger.now (ledger t))

(* A reboot loses the stall detector's stamps with the rest of the
   volatile state. *)
let forget_progress t = Hashtbl.reset t.last_seen

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

(* Guest memory through the CVM's own G-stage table: SM-side CPU
   accesses, so no IOPMP check. [None]/[false] when a page of the range
   is not mapped. *)
let read_guest t cvm ~gpa len =
  Bus.read_gpa t.machine.Machine.bus ~translate:(fun gpa ->
      Spt.lookup cvm.Cvm.spt ~gpa)
    gpa len

let write_guest t cvm ~gpa data =
  Bus.write_gpa t.machine.Machine.bus ~translate:(fun gpa ->
      Spt.lookup cvm.Cvm.spt ~gpa)
    gpa data

(* [audit]'s tally: every feature module adds its own clauses to one. *)
type findings = { mutable checked : int; mutable violations : string list }

let tick f = f.checked <- f.checked + 1

let fail f fmt =
  Printf.ksprintf (fun m -> f.violations <- m :: f.violations) fmt

let check f b fmt =
  tick f;
  if b then Printf.ksprintf ignore fmt else fail f fmt
