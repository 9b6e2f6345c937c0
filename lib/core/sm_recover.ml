(* Crash consistency: the modeled reboot and journal recovery. Each
   pending record is replayed by the module that owns the tables it
   touches. *)

open Riscv
open Sm_state

(* Model a host/SM crash on the same monitor value: everything volatile
   — hart CSRs (PMP, TLB, delegation, translation roots), the IOPMP's
   device registers, the guard's epoch caches, and the SM's scratch
   tables — is wiped; everything durable (secure-NVRAM model: the pool
   list, the CVM table, page ownership, sessions, seals, freed-page
   pools, the journal itself) survives untouched. *)
let crash_reboot t =
  Journal.disarm t.journal;
  Array.iter
    (fun hart ->
      let csr = hart.Hart.csr in
      for e = 0 to 15 do
        Pmp.clear csr.Csr.pmp e
      done;
      Hart.fence hart Tlb.flush_all;
      csr.Csr.satp <- 0L;
      csr.Csr.hgatp <- 0L;
      csr.Csr.medeleg <- 0L;
      csr.Csr.mideleg <- 0L;
      csr.Csr.hedeleg <- 0L;
      csr.Csr.hideleg <- 0L;
      hart.Hart.mode <- Priv.M;
      hart.Hart.pc <- 0L)
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
  Sm_run.forget_volatile t;
  forget_progress t;
  Metrics.Registry.inc t.registry "sm.crash_reboot"

type recovery_report = {
  rr_pending : int;
  rr_rolled_forward : int;
  rr_rolled_back : int;
  rr_parked : int;
  rr_pmp_synced : int;
  rr_detail : string list;
}

(* Replay one pending record. Every branch is idempotent: recovery may
   itself crash at any of the journal points it emits, and the next
   recovery replays the same record again. Checkpoints/completion marks
   are written by [recover], not here (except destroy_replay's own). *)
let replay_record t ~note ~fwd ~back (r : Journal.record) =
  let replay =
    match r.Journal.op with
    | Journal.Op_create _ | Journal.Op_load _ | Journal.Op_expand _
    | Journal.Op_destroy _ ->
        Sm_cvm.replay
    | Journal.Op_relinquish _ | Journal.Op_quarantine _ -> Sm_run.replay
    | Journal.Op_mig_out_begin _ | Journal.Op_mig_out_abort _
    | Journal.Op_mig_out_commit _ | Journal.Op_mig_in_prepare _
    | Journal.Op_mig_in_commit _ | Journal.Op_mig_in_abort _ ->
        Sm_migrate.replay
    | Journal.Op_chan_grant _ | Journal.Op_chan_accept _
    | Journal.Op_chan_revoke _ ->
        Sm_chan.replay
  in
  replay t ~note ~fwd ~back r

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
      Hart.fence hart Tlb.flush_all)
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
