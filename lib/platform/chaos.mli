(** Hostile-host fault injection (the fuzzing hypervisor).

    A seeded, deterministic chaos engine that plays the paper's threat
    model against a live Secure Monitor: randomized host-interface
    calls with adversarial arguments, shared-vCPU reply tampering,
    hostile shared-subtree planting, dishonest answers to the
    slow-path [Exit_need_memory] protocol, attested inter-CVM channel
    handshakes with ring-header poisoning and adversarial-argument
    channel calls, and full protocol migrations to a second platform
    over a lossy channel with random fault rates and injected endpoint
    crashes ({!Migrator}) — interleaved with legitimate guest work so
    the attacks land on realistic state.

    The engine checks three survivability properties and reports them:

    - no exception ever escapes a host-interface call (the typed error
      ABI is total);
    - [Zion.Monitor.audit] finds no invariant violation after any
      injected fault;
    - every CVM the SM quarantines can still be destroyed, with all
      its secure blocks returning to the pool;
    - every migration, however faulty the channel and whenever either
      endpoint crashed, terminates with exactly one owner
      ({!Migrator.handoff_clean}) and both monitors audit clean. *)

type report = {
  iterations : int;
  calls : int;  (** host-interface calls issued *)
  ok_calls : int;
  error_calls : (string * int) list;  (** error label -> count *)
  uncaught : int;  (** exceptions that escaped the host ABI; must be 0 *)
  audits : int;
  violations : string list;  (** distinct audit findings; must be [] *)
  quarantines : int;  (** CVMs the SM quarantined *)
  quarantines_reclaimed : int;  (** quarantined CVMs destroyed + reclaimed *)
  cvms_created : int;
  cvms_destroyed : int;
  migrations : int;  (** protocol migrations attempted (lossy + crashy) *)
  migrations_committed : int;
  migrations_aborted : int;
  ring_poisons : int;  (** hostile pokes at live exitless rings *)
  ring_fallbacks : int;  (** rings CAL degraded to exitful kicks *)
  chan_opens : int;  (** attested inter-CVM channels established *)
  chan_poisons : int;  (** hostile pokes at live channel ring headers *)
  chan_degradations : int;  (** channels CAL degraded (strike budget) *)
  pool_clean : bool;  (** all blocks free and list well-formed at the end *)
}

val survived : report -> bool
(** No uncaught exception, no audit violation, every quarantined CVM
    reclaimed, and the pool fully recovered. *)

val pp_report : Format.formatter -> report -> unit

val run : ?tlb_retention:bool -> seed:int -> iters:int -> unit -> report
(** Build a fresh {!Testbed} (2 harts and 128 MiB of DRAM, with a 2 MiB
    secure pool), and a second one as the far end of migrations, and
    run [iters] fuzzing iterations from [seed]. Same
    seed, same build — same sequence: failures are replayable.
    [tlb_retention] turns on the VMID-tagged world-switch fast path,
    putting the precise-shootdown machinery (and the audit's
    TLB-coherence section) under fire. The inter-CVM channel actions
    are always in the mix: attested open, ring-header poison (must
    degrade the channel, never the endpoints), and adversarial-argument
    channel calls. *)

(** {2 SM-crash sweeps}

    The crash-consistency counterpart to the hostile-host fuzzer: kill
    the Secure Monitor at {e every} write-ahead-journal point of every
    journaled operation (create, load, expand, relinquish, destroy,
    quarantine, all six migration-session calls, and every
    channel transition — grant, accept, revoke, strike-budget
    degradation, and the implicit revocations on endpoint destroy,
    quarantine and migrate-out commit), model the
    reboot with [Zion.Monitor.crash_reboot], run
    [Zion.Monitor.recover], and demand convergence — a clean audit, an
    idempotent second recovery, and a world that still tears down to an
    all-free pool. The schedule is exhaustive, not sampled, so the
    sweep is deterministic and needs no seed. *)

type sm_report = {
  sm_ops : (string * int) list;
      (** operation -> journal points crash-tested *)
  sm_cases : int;
  sm_crashes : int;  (** crashes injected (op + nested recovery) *)
  sm_recoveries : int;
  sm_rolled_forward : int;
  sm_rolled_back : int;
  sm_failures : string list;  (** distinct convergence failures; must be [] *)
}

val sm_survived : sm_report -> bool
val pp_sm_report : Format.formatter -> sm_report -> unit

val sm_crash_sweep : unit -> sm_report
(** Run the full sweep. Each recovery is also crashed at successively
    later journal points until one run completes, exercising
    recover-after-recover-crash. At most 64 points per operation are
    swept, in case a regression makes an operation journal
    unboundedly. *)
