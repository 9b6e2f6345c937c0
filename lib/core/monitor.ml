(* The Secure Monitor, assembled from its feature modules in dependency
   order (DESIGN.md §3): shared state, channels, world switch, CVM
   lifecycle, migration, audit, recovery. This file adds only the
   wiring, the guest profiler and the read-only views. *)

open Riscv
include Sm_state
include Sm_chan
include Sm_run
include Sm_cvm
include Sm_migrate
include Sm_audit
include Sm_recover

let create ?config machine =
  let t = Sm_state.create ?config machine in
  t.orphan_sessions <- Sm_migrate.orphan_sessions t;
  t

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

let health_snapshot ?(stall_cycles = 10_000_000) t =
  let now = Metrics.Ledger.now (ledger t) in
  (* switches per second on the calibrated 100 MHz clock *)
  let seconds = float_of_int now /. 1e8 in
  let tenants =
    Hashtbl.fold
      (fun id (cvm : Cvm.t) acc ->
        let scope = Metrics.Registry.Cvm id in
        let quantile name p =
          match Metrics.Registry.histogram ~scope t.registry name with
          | Some h when Metrics.Histogram.count h > 0 ->
              Metrics.Histogram.quantile h p
          | _ -> 0.
        in
        let counter name = Metrics.Registry.counter ~scope t.registry name in
        let last = Hashtbl.find_opt t.last_seen id in
        let stalled =
          live_state cvm
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
          th_request_p50 = quantile "request_cycles" 50.;
          th_request_p99 = quantile "request_cycles" 99.;
          th_faults = cvm.Cvm.fault_count;
          th_quarantined = cvm.Cvm.state = Cvm.Quarantined;
          th_quarantine_reason = cvm.Cvm.quarantine_reason;
          th_stalled = stalled;
          th_last_progress = (match last with Some c -> c | None -> -1);
          th_io_kicks_suppressed = counter "sm.io.kicks_suppressed";
          th_io_coalesced = counter "sm.io.completions_coalesced";
          th_io_cal_rejections = counter "sm.io.cal_rejections";
          th_io_fallbacks = counter "sm.io.fallbacks";
          th_chan_grants = counter "sm.chan.grants";
          th_chan_accepts = counter "sm.chan.accepts";
          th_chan_revokes = counter "sm.chan.revokes";
          th_chan_peer_rejects = counter "sm.chan.peer_rejects";
          th_chan_degradations = counter "sm.chan.degradations";
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

(* ---------- read-only views ---------- *)

let shared_vcpu_of t ~cvm:id ~vcpu:vcpu_idx =
  Option.map (fun c -> Cvm.shared_vcpu c vcpu_idx) (find_cvm t id)

let cvm_state t ~cvm:id = Option.map (fun c -> c.Cvm.state) (find_cvm t id)

let cvm_count t =
  Hashtbl.fold
    (fun _ c n -> if c.Cvm.state <> Cvm.Destroyed then n + 1 else n)
    t.cvms 0

let cvm_measurement t ~cvm:id =
  Option.bind (find_cvm t id) (fun c -> c.Cvm.measurement)

let quarantine_reason t ~cvm:id =
  Option.bind (find_cvm t id) (fun c -> c.Cvm.quarantine_reason)

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
