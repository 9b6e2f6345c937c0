(** The Secure Monitor (SM): ZION's M-mode trusted computing base.

    The monitor owns the secure memory pool, every confidential VM's
    secure vCPUs and G-stage page tables, the PMP/IOPMP guards and the
    trap-delegation programming. It exposes the two ECALL interfaces of
    the paper's Figure 1 as OCaml functions: in the simulation the
    hypervisor library calls the host interface directly (standing in
    for an [ecall] from HS) while guest code running on the simulated
    hart reaches the guest interface through real [ecall] instructions
    that trap to M.

    {2 World switching}

    [run_vcpu] is the short-path world switch: exactly one privilege
    hop in each direction (host ↔ SM ↔ guest). Each entry and exit
    charges a path composed from [Riscv.Cost] units; the composition
    varies with the exit cause (timer vs MMIO), the shared-vCPU setting,
    and the long-path option — those are the §V.B experiments. The
    cycles of the most recent and all past switches are recorded for
    the benchmark harness. *)

type config = {
  shared_vcpu : bool;
      (** use the shared-vCPU fast path for MMIO state transfer
          (paper §IV.B); when false, state moves through SM-mediated
          GET/SET_REG calls *)
  long_path : bool;
      (** route switches through a secure-hypervisor hop, reproducing
          the long-path baseline of §V.B.2 *)
  validate_shared_on_entry : bool;
      (** sweep the hypervisor's shared page-table subtree on every
          entry (hardened mode; off to match the paper's measurements) *)
  tlb_retention : bool;
      (** VMID-tagged world-switch fast path: keep TLB entries across
          entry/exit instead of the paper-faithful full flush, relying
          on precise VMID/PA-scoped shootdowns wherever a mapping dies
          (relinquish, destroy, quarantine, migrate-out). Off by
          default to match the paper's measured switch costs; [audit]'s
          TLB-coherence section holds in both modes *)
}

val default_config : config

type exit_reason =
  | Exit_timer  (** host timer quantum expired *)
  | Exit_limit  (** step budget exhausted (simulation artifact) *)
  | Exit_mmio of Vcpu.mmio  (** guest touched emulated-device space *)
  | Exit_shared_fault of int64
      (** guest touched an unmapped shared-region GPA; the hypervisor
          must map it in its own subtree and re-run *)
  | Exit_need_memory of { bytes : int64 }
      (** stage-3 allocation: the pool is exhausted; register more
          secure memory and re-run *)
  | Exit_shutdown  (** guest requested shutdown *)
  | Exit_error of string  (** unrecoverable guest or protocol error *)

type t

val create : ?config:config -> Riscv.Machine.t -> t
val machine : t -> Riscv.Machine.t
val config : t -> config
val secmem : t -> Secmem.t

(* {2 Observability} *)

val trace : t -> Metrics.Trace.t
(** The monitor's flight recorder. Disabled (and free) by default;
    enable with [Metrics.Trace.enable] to capture structured events —
    world-switch spans, host-interface ecall spans, fault instants,
    PMP/IOPMP reprogramming, Check-after-Load verdicts — stamped with
    the ledger's cycle clock. *)

val registry : t -> Metrics.Registry.t
(** Named counters and histograms, populated (per CVM and globally)
    while the trace is enabled. *)

val enable_profiler : ?interval:int -> t -> unit
(** Install this monitor's guest PC-sampling profiler as the
    interpreter's [Riscv.Exec.profile] hook, creating it on first use
    ([interval] retired instructions per sample, default 64). Samples
    taken while a hart runs a CVM are attributed to that CVM; samples
    outside any CVM go to the host bucket. Calling again with a
    different [interval] starts a fresh profiler; otherwise the
    existing one (and its data) is kept.

    Threat-model note: sampling happens on the SM side of the trust
    boundary — the SM observes guest PCs. See DESIGN.md. *)

val disable_profiler : t -> unit
(** Uninstall the interpreter hook (back to one dead branch per
    retired instruction). Collected samples are kept and remain
    readable through {!profiler}. *)

val profiler : t -> Metrics.Profile.t option
(** The profiler, if {!enable_profiler} ever ran. *)

(* {3 Per-tenant health rollups} *)

type tenant_health = {
  th_cvm : int;
  th_state : string;  (** [Cvm.state_to_string] of the current state *)
  th_entries : int;
  th_exits : int;
  th_switch_rate : float;  (** world-switch exits per simulated second *)
  th_request_p50 : float;
      (** p50 of the per-CVM ["request_cycles"] histogram (recorded by
          traced workload drivers); [0.] when absent *)
  th_request_p99 : float;
  th_faults : int;  (** guest page faults served by the SM *)
  th_quarantined : bool;
  th_quarantine_reason : string option;
  th_stalled : bool;
      (** live (runnable/running/suspended) but no world-switch
          progress for more than [stall_cycles] *)
  th_last_progress : int;
      (** ledger cycles at the last entry/exit (or finalize);
          [-1] if never *)
  th_io_kicks_suppressed : int;
      (** exitless-ring requests serviced without a doorbell MMIO exit
          (per-CVM ["sm.io.kicks_suppressed"]) *)
  th_io_coalesced : int;
      (** completions delivered under an earlier batch's used-index
          publish (["sm.io.completions_coalesced"]) *)
  th_io_cal_rejections : int;
      (** Check-after-Load verdicts that rejected a host-written ring
          field (["sm.io.cal_rejections"]) *)
  th_io_fallbacks : int;
      (** rings degraded to the exitful MMIO kick path
          (["sm.io.fallbacks"]) *)
  th_chan_grants : int;
      (** inter-CVM channels this CVM offered (["sm.chan.grants"]) *)
  th_chan_accepts : int;
      (** channels this CVM accepted (["sm.chan.accepts"]) *)
  th_chan_revokes : int;
      (** explicit and implicit channel revocations charged to this CVM
          (["sm.chan.revokes"]) *)
  th_chan_peer_rejects : int;
      (** peer attestation mismatches and Check-after-Load header
          rejections observed by this CVM (["sm.chan.peer_rejects"]) *)
  th_chan_degradations : int;
      (** channels the SM degraded on this CVM's behalf after the strike
          budget (["sm.chan.degradations"]) *)
}

type health = {
  h_now : int;  (** ledger cycles at snapshot time *)
  h_cvms : tenant_health list;  (** sorted by CVM id *)
  h_total_switches : int;
  h_internal_faults : int;
}

val health_snapshot : ?stall_cycles:int -> ?clock_hz:float -> t -> health
(** The live telemetry rollup for every CVM this monitor knows
    (including quarantined and destroyed ones still in the table).
    [stall_cycles] defaults to 10M cycles; [clock_hz] (for the
    switches/sec rate) defaults to 1e8, the calibrated 100 MHz
    clock. Works with the flight recorder on or off — lifecycle
    counts come from CVM bookkeeping; only the request latency
    quantiles need a traced workload feeding the registry. *)

val exit_reason_label : exit_reason -> string
(** Short stable label ("timer", "mmio", ...) used in trace events and
    counter names. *)

(* {2 Host-side interface (hypervisor → SM)}

   Every function below is {e total} with respect to host input: any
   argument the hypervisor can invent — unknown ids, out-of-range
   vCPU or hart indices, misaligned or wild addresses, calls in the
   wrong lifecycle state — comes back as [Error (_ : Ecall.error)].
   An exception escaping one of these entry points is an SM bug; the
   boundary wrapper converts it to [Error (Internal _)], counts it
   under [sm.internal_fault], and (for [run_vcpu]) restores the host
   world and quarantines the CVM rather than unwinding with the PMP
   window open. *)

val register_secure_region :
  t -> base:int64 -> size:int64 -> (int, Ecall.error) result
(** Donate normal memory to the secure pool. The SM verifies the range
    is DRAM, carves blocks, and programs PMP/IOPMP guards on every
    hart. Returns the number of blocks added. *)

val create_cvm :
  t -> nvcpus:int -> entry_pc:int64 -> (int, Ecall.error) result
(** Allocate CVM bookkeeping, a table block, and the G-stage root.
    Returns the new CVM id. *)

val load_image :
  t -> cvm:int -> gpa:int64 -> string -> (unit, Ecall.error) result
(** Copy data into the CVM's private memory (allocating and mapping
    pages) and extend the measurement. Only legal before
    [finalize_cvm]. *)

val finalize_cvm : t -> cvm:int -> (string, Ecall.error) result
(** Seal the measurement and make the CVM runnable; returns the
    32-byte measurement. *)

val install_shared :
  t -> cvm:int -> table_pa:int64 -> (unit, Ecall.error) result
(** Hand the SM the hypervisor's shared-subtree root (must lie in
    normal memory); the SM links it into the CVM's root table. *)

val destroy_cvm : t -> cvm:int -> (unit, Ecall.error) result
(** Scrub and reclaim every secure block the CVM owned. Every live
    channel touching the CVM is implicitly revoked first (scrubbed,
    unmapped from the surviving peer, precisely shot down on both
    VMIDs), inside the same journal window. *)

(* {2 Attested inter-CVM channels}

   SM-mediated shared-memory channels between two CVMs on one platform.
   A channel is one secure 4 KiB ring page the SM maps into {e both}
   endpoints' private halves at the same slot GPA
   ([Layout.chan_slot_gpa]) — but only after each side has verified the
   other's attestation report: the granter names the measurement it
   expects at [chan_grant] (nothing is allocated for a peer that does
   not match), the acceptor at [chan_accept], and each call returns the
   peer's report — MAC-bound to the peer's CVM id, measurement,
   {e lifecycle epoch} and the caller's freshness nonce — for the
   caller to verify with [Attest.verify_report] before using the
   channel. Epoch binding makes stale evidence unusable: any
   migrate-out lock or release bumps the endpoint's epoch, and
   [chan_accept] refuses an offer whose captured epochs no longer
   match.

   The ring page belongs to the channel, never to either CVM: it is the
   one sanctioned double-mapping in the architecture, and [audit]'s
   channel section proves it is mapped by exactly the two endpoints
   while established, by nobody otherwise, never host-reachable, and
   never reachable from a destroyed or quarantined VMID.

   A Byzantine peer gets the exitless-ring treatment scoped to the
   channel: every header field loaded from a peer-writable half passes
   Check-after-Load against the SM's delivery shadow; each rejection
   (seq rewind, seq runaway, absurd length) is a strike, and at
   [chan_max_strikes] the SM degrades the {e channel} — journaled
   teardown, scrub, precise two-VMID shootdown, block reclaim — never
   the CVM. All multi-step transitions (grant, accept, revoke,
   degradation, and the implicit revokes on destroy/quarantine/
   migrate-out commit of either endpoint) journal intent before their
   first mutation and recover idempotently. *)

val chan_max_strikes : int
(** Check-after-Load rejections a channel survives before the SM
    degrades it (3). *)

val chan_grant :
  t ->
  cvm:int ->
  peer:int ->
  nonce:string ->
  expect:string ->
  (int * Attest.report, Ecall.error) result
(** Offer a channel from [cvm] to [peer]: allocate and scrub a ring
    block, journal the offer, and return the channel id together with
    the peer's attestation report over [nonce]. [expect] is the
    measurement [cvm] requires of the peer — on mismatch nothing is
    allocated and the call is [Denied] (counted under
    ["sm.chan.peer_rejects"]). [nonce] must be 1..[Attest.max_nonce_len]
    bytes ([Invalid_param] otherwise). Both endpoints must be distinct,
    finalized and live; [Quarantined]/[Bad_state] otherwise. Nothing is
    mapped yet: the offer only becomes a live window at
    [chan_accept]. *)

val chan_accept :
  t ->
  chan:int ->
  cvm:int ->
  nonce:string ->
  expect:string ->
  (Attest.report, Ecall.error) result
(** Accept an offered channel as its designated peer: verify the
    granter's current measurement against [expect] and both endpoints'
    lifecycle epochs against those captured at the offer ([Denied] on
    any mismatch — a stale pre-migration offer cannot go live), then
    map the ring page into both private halves and return the granter's
    report over [nonce]. [Already_exists] if either endpoint already
    maps something at the slot GPA (e.g. demand-paged memory).
    Only the endpoint named at the grant may accept ([Denied]). *)

val chan_revoke : t -> chan:int -> cvm:int -> (unit, Ecall.error) result
(** Tear the channel down from either endpoint: journaled scrub of the
    ring page, unmap from both private halves, precise [flush_pa]
    shootdown on both VMIDs, block returned to the pool. Idempotent on
    an already-dead channel. [Denied] from a non-endpoint. *)

val chan_poll : t -> chan:int -> (bool, Ecall.error) result
(** Host-driveable watchdog: run Check-after-Load over both directional
    headers without delivering anything, striking the channel for every
    rejected field. Returns [Ok true] while the channel is live,
    [Ok false] once it is dead — degradation is the outcome the host
    polls for, not an error. *)

type chan_info = {
  ci_id : int;
  ci_a : int;  (** granting endpoint *)
  ci_b : int;  (** accepting endpoint *)
  ci_phase : string;  (** "offered" | "established" | "revoked" | "degraded" *)
  ci_gpa : int64;  (** slot GPA in both private halves *)
  ci_page : int64 option;  (** ring page PA while the channel holds it *)
  ci_strikes : int;
  ci_reason : string option;  (** why it died, once dead *)
}

val chan_info : t -> chan:int -> chan_info option
val chan_list : t -> chan_info list
(** All channels this monitor knows, sorted by id (dead ones
    included). *)

(* {2 Crash-safe migration sessions (2PC handoff)}

   The session API below is the only way a CVM leaves a monitor. The
   [Migrate_proto] endpoints drive it over an unreliable courier.
   All decision state — who owns the guest — lives in the monitors'
   session tables, so a crashed endpoint recovers by re-deriving its
   protocol position from [migrate_session]. Ownership rules:

   - [migrate_out_begin] locks the source CVM in [Migrating_out]: not
     runnable, fully resumable via [migrate_out_abort].
   - [migrate_in_prepare] builds the destination CVM in [Migrating_in]
     (the 2PC prepared state): not runnable until commit.
   - [migrate_out_commit] is the commit point of the whole handoff: it
     scrubs the source instance. Until it runs, the source can abort;
     after it, the handoff is irrevocable and the destination's
     [migrate_in_commit] is the only way forward.
   - Session ids are single-use per direction: a committed or aborted
     in-session never accepts another blob ([Denied]), which rejects
     replays of a committed session.
   - Blobs are single-use per destination: a blob another in-session
     already took is [Denied], so a committed blob replayed under a
     fresh session id cannot land a second copy. *)

val migrate_out_begin :
  ?budget:int ->
  t ->
  cvm:int ->
  session:string ->
  (string * int, Ecall.error) result
(** Open (or, after a source crash, re-open) an outbound session:
    snapshot and seal the CVM, lock it in [Migrating_out], and record
    the session. Returns the sealed blob and the session epoch (1 on
    first begin, incremented on each recovery re-begin; the export
    nonce is fixed per session so every epoch's blob is byte-identical).
    [budget] is the retry budget audited against recorded stalls.
    [Already_exists] if the session or CVM is already migrating under a
    different identity. *)

val migrate_out_abort : t -> session:string -> (unit, Ecall.error) result
(** Abort an undecided outbound session: the CVM returns to [Suspended]
    (the source stays the one owner). Idempotent. [Bad_state] after the
    commit point. *)

val migrate_out_commit : t -> session:string -> (unit, Ecall.error) result
(** The handoff's commit point: mark the session committed and scrub the
    source instance. Idempotent. [Bad_state] if already aborted. *)

val migrate_in_prepare :
  t -> session:string -> epoch:int -> string -> (int, Ecall.error) result
(** Verify a reassembled blob and build the destination CVM in
    [Migrating_in] (2PC prepared). Returns the CVM id. A later epoch of
    the same session replaces an earlier prepared instance; [Denied] on
    authentication failure, on replay of a committed/aborted session, or
    on a blob another in-session already took; [Bad_state] on a stale
    epoch. *)

val migrate_in_commit : t -> session:string -> (int, Ecall.error) result
(** Activate a prepared CVM ([Migrating_in] → [Suspended], ready to
    resume). Idempotent; returns the CVM id. *)

val migrate_in_abort : t -> session:string -> (unit, Ecall.error) result
(** Scrub a prepared-but-uncommitted destination CVM. Idempotent.
    [Bad_state] once committed. *)

type migration_info = {
  mi_role : [ `Out | `In ];
  mi_phase : [ `Active | `Committed | `Aborted ];
  mi_cvm : int option;
  mi_epoch : int;
  mi_blob_tag : string;  (** public fingerprint of the session's blob *)
  mi_stalls : int;
  mi_budget : int;
}

val migrate_session :
  t -> role:[ `Out | `In ] -> session:string -> migration_info option
(** Read one side's durable view of a session — the recovery oracle for
    crashed protocol endpoints. *)

val migrate_note_stalls :
  t -> session:string -> int -> (unit, Ecall.error) result
(** Record the source endpoint's consecutive-timeout count so [audit]
    can enforce the retry budget. Counts outside [0, budget] are
    [Invalid_param]: an honest endpoint aborts rather than retry past
    its declared budget, so an out-of-range report is a hostile host
    trying to frame the session. *)

val run_vcpu :
  t ->
  hart:int ->
  cvm:int ->
  vcpu:int ->
  max_steps:int ->
  (exit_reason, Ecall.error) result
(** World-switch in, execute guest instructions on the simulated hart
    until an exit condition, world-switch out. If the previous exit was
    MMIO, the hypervisor's reply is absorbed from the shared vCPU
    (Check-after-Load) — or from the staged SET_REG value when the
    shared vCPU is disabled — before the guest resumes. *)

val get_vcpu_reg : t -> cvm:int -> vcpu:int -> reg:int -> (int64, Ecall.error) result
(** SM-mediated register read, used by the hypervisor when the shared
    vCPU is disabled. Only the registers exposed by the pending exit
    may be read; anything else is [Denied]. *)

val set_vcpu_reg : t -> cvm:int -> vcpu:int -> reg:int -> int64 -> (unit, Ecall.error) result
(** SM-mediated register write: only the pending MMIO destination
    register may be written. *)

val shared_vcpu_of : t -> cvm:int -> vcpu:int -> Vcpu.shared option
(** The shared vCPU structure. It lives in hypervisor memory, so handing
    the hypervisor a reference models exactly the paper's trust split:
    the hypervisor reads and writes it freely; the SM re-validates
    everything it loads from it. *)

type path = Entry_plain | Entry_with_mmio | Exit_plain | Exit_with_mmio

val path_cost : t -> path -> int
(** Modeled cycle cost of one world-switch path under the monitor's
    current configuration — the same compositions charged by
    [run_vcpu], exported for the macro-benchmark event model. *)

val cvm_state : t -> cvm:int -> Cvm.state option
val cvm_count : t -> int
val cvm_measurement : t -> cvm:int -> string option

val quarantine_reason : t -> cvm:int -> string option
(** Why a CVM was quarantined, if it was. A quarantined CVM accepts
    only [destroy_cvm]; every other call returns
    [Ecall.Quarantined]. The SM quarantines a CVM when the hypervisor
    breaks the exit protocol (Check-after-Load rejection), plants a
    hostile shared subtree, or an internal fault interrupts a world
    switch and the CVM's state can no longer be trusted. *)

(* {2 Statistics for the benchmark harness} *)

val entry_cycles : t -> int list
(** Cycle cost of every CVM entry so far, most recent first. *)

val exit_cycles : t -> int list

val fault_log : t -> (Hier_alloc.stage * int) list
(** (stage, cycles) per stage-2 fault handled, most recent first. *)

val alloc_stats : t -> cvm:int -> Hier_alloc.stats option

val console_output : t -> string
(** Guest console bytes forwarded by the SM to the UART. *)

val pmp_counters : t -> (string * int) list
(** The PMP guard's work/skip counters ([pmp.syncs], [pmp.sync_skips],
    [pmp.world_toggles], [pmp.world_skips]) — how often the per-hart
    epoch cache proved a reprogramming redundant. *)

val audit : t -> (int, string list) result
(** Sweep the whole platform and verify the architecture's global
    security invariants:

    - the secure pool is PMP-closed on every hart that is not running a
      CVM right now (all of them, whenever the host can call this);
    - every private page mapped by any CVM lies inside the secure pool,
      is recorded as owned by exactly that CVM, and backs no other CVM;
    - no page-table page of any CVM is simultaneously mapped as data
      into any CVM's guest-physical space;
    - every hypervisor shared subtree is free of secure-memory leaves;
    - the secure-memory free list is circular, ordered and consistent;
    - no page owned by a live CVM lies inside a free block;
    - the secure vCPU state of every parked CVM matches the checksum
      seal taken at its last legitimate SM write;
    - migration-session ownership: every active session pins its CVM in
      the matching [Migrating_out]/[Migrating_in] state and every
      migrating CVM is pinned by exactly one active session; committed
      out-sessions left the source scrubbed; committed in-sessions
      activated their CVM; aborted sessions stranded no lock; no active
      source session has exceeded its retry budget;
    - TLB coherence: no hart caches a translation into a free secure
      block, into a secure page its CVM no longer maps, or into secure
      memory at all under a VMID with no runnable CVM behind it
      (host, normal VMs, quarantined/destroyed/migrated-out guests) —
      the invariant that makes VMID-tagged retention safe;
    - channel ownership: every live channel's ring page lies inside the
      PMP-closed pool, is CVM-owned by nobody, sits in no free block,
      and is mapped at its slot GPA by exactly the two endpoints iff
      established (by nobody while offered); no live channel keeps a
      destroyed or quarantined endpoint reachable; dead channels hold
      no page.

    Returns the number of facts checked, or the list of violations.
    Tests call this after every adversarial scenario; a violation means
    an isolation property was broken {e somewhere}, whether or not a
    specific attack test noticed. *)

(** {2 Crash consistency}

    Every multi-step SM operation records a typed intent in a
    write-ahead journal (kept in the modeled secure NVRAM) before its
    first durable mutation and a completion mark after its last, with
    checkpoints at each intermediate durable write. A crash at any
    journal point leaves a [Pending] record; [recover] replays it —
    roll-forward for operations whose inputs are already durable
    (destroy, relinquish, quarantine, expand, migration abort/commit),
    roll-back for operations whose inputs lived in untrusted volatile
    memory (create, load, migrate-in prepare) — until [audit]
    is clean and exactly-one-owner holds again. The non-crash path
    never charges a cycle for journaling: records are modeled NVRAM
    writes outside the cost ledger. *)

val journal : t -> Journal.t
(** The SM's write-ahead intent journal. Exposed so chaos harnesses can
    arm crash injection ([Journal.set_crash_after]) and tests can
    inspect pending records; production callers have no reason to touch
    it. *)

val crash_reboot : t -> unit
(** Model a host/SM crash-and-reboot on this monitor: wipe everything
    volatile — hart PMP/TLB/delegation/translation CSRs, saved host
    contexts, IOPMP device registers, the PMP guard's epoch caches,
    pending-MMIO and expansion scratch tables — while everything
    durable (secure pool, CVM table, page ownership, sessions, vCPU
    seals, freed-page pools, the journal) survives. The machine is left
    in the powered-on-but-unconfigured state [recover] expects; running
    CVMs are {e not} parked here (recovery does that) so the
    post-crash state is exactly what a reboot would find. *)

type recovery_report = {
  rr_pending : int;  (** journal records found pending *)
  rr_rolled_forward : int;  (** records completed forward *)
  rr_rolled_back : int;  (** records undone *)
  rr_parked : int;  (** Running CVMs parked to Suspended *)
  rr_pmp_synced : int;  (** harts whose PMP was reprogrammed *)
  rr_detail : string list;  (** human-readable action log, in order *)
}

val recover : t -> recovery_report
(** Restart recovery. Rebuilds the volatile security state from durable
    ground truth (delegation, PMP closure over every registered region,
    IOPMP denies, cold TLBs), parks CVMs the crash caught mid-run
    (safe: the secure vCPU image is only written at world-switch-out,
    so the seal from the last legitimate exit still matches), then
    replays every pending journal record in sequence order, marking
    each done only after its replay completed — so a crash during
    recovery itself re-replays idempotently. Post-condition: [audit]
    returns [Ok] and a second [recover] finds zero pending records.
    Charges [sm_recover] for the PMP/TLB reprogramming performed. *)
