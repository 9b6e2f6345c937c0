(* zionctl — command-line front end for the ZION reproduction. The
   paper's experiments and the micro benches run from bench/main.exe.

   Subcommands:
     boot         boot a confidential VM that prints a message
     attacks      run every hostile-host attack vector (Platform.Attacks)
     audit        sweep the platform's security invariants after a boot
     recover      stage an SM crash at a journal point and recover
     fuzz         fault-inject the SM under a hostile hypervisor, or
                  sweep every SM crash point
     migrate      migrate a live CVM over a lossy channel
     telemetry    run a workload under the SM flight recorder and export
                  its counters, histograms, ledger, trace and profile
                  (table / JSON / Prometheus / Chrome trace / JSON lines
                  / folded stacks)
     top          drive a traced Redis CVM and print live per-tenant
                  health snapshots
     channel      attested inter-CVM channel demo
     costs        dump the calibrated cost model *)

open Cmdliner

let fixed = Metrics.Table.fixed

(* ---------- boot ---------- *)

let boot_cmd =
  let message =
    Arg.(
      value
      & opt string "hello from zionctl"
      & info [ "m"; "message" ] ~doc:"Message the guest prints.")
  in
  let run message =
    let tb = Platform.Testbed.create () in
    let handle = Platform.Testbed.cvm tb (Guest.Gprog.hello (message ^ "\n")) in
    (match
       Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm handle
         ~hart:0 ~quantum:Platform.Testbed.quantum_cycles ~max_slices:100
     with
    | Hypervisor.Kvm.C_shutdown -> ()
    | _ -> prerr_endline "warning: guest did not shut down");
    print_string (Zion.Monitor.console_output tb.Platform.Testbed.monitor)
  in
  Cmd.v
    (Cmd.info "boot" ~doc:"Boot a confidential VM that prints a message")
    Term.(const run $ message)

(* ---------- attacks ---------- *)

let attacks_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the verdicts as a JSON object instead of a table.")
  in
  let run json =
    let verdicts =
      List.map
        (fun (name, outcome) ->
          match outcome with
          | Platform.Attacks.Blocked why -> (name, true, why)
          | Platform.Attacks.Leaked why -> (name, false, why))
        (Platform.Attacks.suite [ Host; Ring; Channel ])
    in
    if json then begin
      let open Metrics.Export in
      print_endline
        (json_to_string
           (Obj
              (List.map
                 (fun (name, b, why) ->
                   (name, Obj [ ("blocked", Bool b); ("how", Str why) ]))
                 verdicts)))
    end
    else
      Metrics.Table.print
        ~header:[ "vector"; "verdict"; "defence" ]
        (List.map
           (fun (name, b, why) ->
             [ name; (if b then "BLOCKED" else "LEAKED"); why ])
           verdicts);
    if List.exists (fun (_, b, _) -> not b) verdicts then exit 1
  in
  Cmd.v
    (Cmd.info "attacks"
       ~doc:
         "Run every hostile-host attack vector, each on the platform it \
          needs: the host's moves against the pool, the shared vCPU and \
          device DMA, the exitless-ring poisons and the hostile-peer \
          channel vectors; exits 1 if any vector leaks")
    Term.(const run $ json)

(* ---------- audit ---------- *)

let audit_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the audit result as a JSON object instead of text.")
  in
  let run json_out =
    let tb = Platform.Testbed.create () in
    let handle = Platform.Testbed.cvm tb (Guest.Gprog.hello "audit\n") in
    ignore
      (Hypervisor.Kvm.run_cvm_to_completion tb.Platform.Testbed.kvm handle
         ~hart:0 ~quantum:Platform.Testbed.quantum_cycles ~max_slices:100);
    let result = Zion.Monitor.audit tb.Platform.Testbed.monitor in
    if json_out then begin
      let open Metrics.Export in
      print_endline
        (json_to_string
           (Obj
              (match result with
              | Ok facts ->
                  [
                    ("ok", Bool true);
                    ("facts_checked", num_of_int facts);
                    ("violations", List []);
                  ]
              | Error findings ->
                  [
                    ("ok", Bool false);
                    ( "violations",
                      List (List.map (fun f -> Str f) findings) );
                  ])))
    end
    else begin
      match result with
      | Ok facts -> Printf.printf "audit clean: %d facts checked\n" facts
      | Error findings ->
          Printf.printf "audit found %d violation(s):\n"
            (List.length findings);
          List.iter (fun f -> Printf.printf "  %s\n" f) findings
    end;
    match result with Ok _ -> () | Error _ -> exit 1
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Boot a guest to completion, then sweep the platform's global \
          security invariants and report every fact checked or \
          violation found")
    Term.(const run $ json)

(* ---------- recover ---------- *)

let recover_cmd =
  let point =
    Arg.(
      value & opt int 2
      & info [ "crash-point" ] ~docv:"N"
          ~doc:
            "Journal point at which the staged SM crash fires (each \
             intent append, checkpoint and completion mark is one \
             point).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the recovery report as a JSON object instead of text.")
  in
  let run point json_out =
    let tb = Platform.Testbed.create () in
    let mon = tb.Platform.Testbed.monitor in
    let j = Zion.Monitor.journal mon in
    (* Stage a crash mid-operation, reboot, then drive host-restart
       recovery — the CLI face of the chaos sweep's single case. *)
    Zion.Journal.set_crash_after j point;
    let crashed =
      match Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:0x10000L with
      | _ ->
          Zion.Journal.disarm j;
          false
      | exception Zion.Journal.Crashed ->
          Zion.Monitor.crash_reboot mon;
          true
    in
    let rep = Zion.Monitor.recover mon in
    let audit_ok =
      match Zion.Monitor.audit mon with Ok _ -> true | Error _ -> false
    in
    if json_out then begin
      let open Metrics.Export in
      let n = num_of_int in
      print_endline
        (json_to_string
           (Obj
              [
                ("crashed", Bool crashed);
                ("pending", n rep.Zion.Monitor.rr_pending);
                ("rolled_forward", n rep.Zion.Monitor.rr_rolled_forward);
                ("rolled_back", n rep.Zion.Monitor.rr_rolled_back);
                ("parked", n rep.Zion.Monitor.rr_parked);
                ("pmp_synced", n rep.Zion.Monitor.rr_pmp_synced);
                ( "detail",
                  List
                    (List.map (fun d -> Str d) rep.Zion.Monitor.rr_detail) );
                ("audit_ok", Bool audit_ok);
              ]))
    end
    else begin
      Printf.printf
        "crash %s; recovery: %d pending, %d rolled forward, %d rolled \
         back, %d parked, %d harts resynced\n"
        (if crashed then
           Printf.sprintf "injected at journal point %d" point
         else "did not fire (operation completed first)")
        rep.Zion.Monitor.rr_pending rep.Zion.Monitor.rr_rolled_forward
        rep.Zion.Monitor.rr_rolled_back rep.Zion.Monitor.rr_parked
        rep.Zion.Monitor.rr_pmp_synced;
      List.iter (fun d -> Printf.printf "  %s\n" d)
        rep.Zion.Monitor.rr_detail;
      Printf.printf "post-recovery audit: %s\n"
        (if audit_ok then "clean" else "VIOLATIONS")
    end;
    if not audit_ok then exit 1
  in
  Cmd.v
    (Cmd.info "recover"
       ~doc:
         "Stage an SM crash at a chosen write-ahead-journal point, \
          model the reboot, run host-restart recovery and report what \
          it rolled forward or back")
    Term.(const run $ point $ json)

(* ---------- fuzz ---------- *)

let fuzz_cmd =
  let seed =
    Arg.(
      value & opt int 42
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"PRNG seed. Same seed, same build — same run.")
  in
  let iters =
    Arg.(
      value & opt int 2000
      & info [ "iters" ] ~docv:"N" ~doc:"Number of fuzzing iterations.")
  in
  let no_retention =
    Arg.(
      value & flag
      & info [ "no-tlb-retention" ]
          ~doc:
            "Fuzz with the paper-faithful flush-on-every-switch TLB \
             instead of the VMID-tagged retention fast path. Survival \
             and a clean audit are required either way; the default \
             (retention on) puts the precise-shootdown machinery under \
             fire.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the report as a JSON object instead of text.")
  in
  let sm_crash =
    Arg.(
      value & flag
      & info [ "sm-crash" ]
          ~doc:
            "Instead of the randomized fuzzer, run the exhaustive \
             SM-crash sweep: kill the Secure Monitor at every \
             write-ahead-journal point of every journaled operation, \
             recover, and verify convergence (clean audit, idempotent \
             re-recovery, pool drains to all-free). Deterministic; \
             ignores $(b,--seed) and $(b,--iters).")
  in
  let run_sm_crash json_out =
    let r = Platform.Chaos.sm_crash_sweep () in
    if json_out then begin
      let open Metrics.Export in
      let n = num_of_int in
      print_endline
        (json_to_string
           (Obj
              [
                ( "ops",
                  Obj
                    (List.map
                       (fun (op, pts) -> (op, n pts))
                       r.Platform.Chaos.sm_ops) );
                ("cases", n r.Platform.Chaos.sm_cases);
                ("crashes", n r.Platform.Chaos.sm_crashes);
                ("recoveries", n r.Platform.Chaos.sm_recoveries);
                ("rolled_forward", n r.Platform.Chaos.sm_rolled_forward);
                ("rolled_back", n r.Platform.Chaos.sm_rolled_back);
                ( "failures",
                  List
                    (List.map
                       (fun f -> Str f)
                       r.Platform.Chaos.sm_failures) );
                ("survived", Bool (Platform.Chaos.sm_survived r));
              ]))
    end
    else Format.printf "%a@?" Platform.Chaos.pp_sm_report r;
    if not (Platform.Chaos.sm_survived r) then exit 1
  in
  let run seed iters no_retention json_out sm_crash =
    if sm_crash then run_sm_crash json_out
    else begin
      let r =
        Platform.Chaos.run ~tlb_retention:(not no_retention) ~seed ~iters ()
      in
    if json_out then begin
      let open Metrics.Export in
      let n = num_of_int in
      print_endline
        (json_to_string
           (Obj
              [
                ("iterations", n r.Platform.Chaos.iterations);
                ("calls", n r.Platform.Chaos.calls);
                ("ok_calls", n r.Platform.Chaos.ok_calls);
                ( "error_calls",
                  Obj
                    (List.map
                       (fun (label, count) -> (label, n count))
                       r.Platform.Chaos.error_calls) );
                ("uncaught", n r.Platform.Chaos.uncaught);
                ("audits", n r.Platform.Chaos.audits);
                ( "violations",
                  List
                    (List.map
                       (fun v -> Str v)
                       r.Platform.Chaos.violations) );
                ("quarantines", n r.Platform.Chaos.quarantines);
                ( "quarantines_reclaimed",
                  n r.Platform.Chaos.quarantines_reclaimed );
                ("cvms_created", n r.Platform.Chaos.cvms_created);
                ("cvms_destroyed", n r.Platform.Chaos.cvms_destroyed);
                ("migrations", n r.Platform.Chaos.migrations);
                ( "migrations_committed",
                  n r.Platform.Chaos.migrations_committed );
                ( "migrations_aborted",
                  n r.Platform.Chaos.migrations_aborted );
                ("ring_poisons", n r.Platform.Chaos.ring_poisons);
                ("ring_fallbacks", n r.Platform.Chaos.ring_fallbacks);
                ("chan_opens", n r.Platform.Chaos.chan_opens);
                ("chan_poisons", n r.Platform.Chaos.chan_poisons);
                ( "chan_degradations",
                  n r.Platform.Chaos.chan_degradations );
                ("pool_clean", Bool r.Platform.Chaos.pool_clean);
                ("survived", Bool (Platform.Chaos.survived r));
              ]))
      end
      else Format.printf "%a@?" Platform.Chaos.pp_report r;
      if not (Platform.Chaos.survived r) then exit 1
    end
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Fault-inject the Secure Monitor under a hostile fuzzing \
          hypervisor (or, with $(b,--sm-crash), the exhaustive \
          crash-at-every-journal-point sweep) and report survival")
    Term.(const run $ seed $ iters $ no_retention $ json $ sm_crash)

(* ---------- migrate ---------- *)

let migrate_cmd =
  let prob name doc =
    Arg.(
      value & opt float 0.0
      & info [ name ] ~docv:"P" ~doc:(doc ^ " probability on the courier channel, 0..1."))
  in
  let loss = prob "loss" "Per-message drop" in
  let dup = prob "dup" "Per-message duplication" in
  let reorder = prob "reorder" "Per-message hold-back (reorder)" in
  let corrupt = prob "corrupt" "Per-message byte-flip" in
  let seed =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"SEED"
          ~doc:"Channel fault-schedule seed. Same seed, same build — same \
                delivery schedule.")
  in
  let crash_at =
    Arg.(
      value & opt (some int) None
      & info [ "crash-at" ] ~docv:"N"
          ~doc:
            "Kill one endpoint when its protocol-event counter reaches \
             $(docv); it recovers from its monitor's durable session \
             record a few ticks later.")
  in
  let crash_side =
    Arg.(
      value
      & opt
          (enum
             [ ("source", Hypervisor.Migrator.Source);
               ("dest", Hypervisor.Migrator.Dest) ])
          Hypervisor.Migrator.Source
      & info [ "crash-side" ] ~docv:"SIDE"
          ~doc:"Which endpoint $(b,--crash-at) kills: source or dest.")
  in
  let contains line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    m = 0 || go 0
  in
  let run loss dup reorder corrupt seed crash_at crash_side =
    (* Source host: boot a guest, park it mid-loop. *)
    let tb_a = Platform.Testbed.create () in
    let src = tb_a.Platform.Testbed.monitor in
    let prog =
      Guest.Gprog.print "moved!"
      @ Riscv.Asm.li Riscv.Asm.t0 150_000L
      @ [
          Riscv.Decode.Op_imm (Riscv.Decode.Add, Riscv.Asm.t0, Riscv.Asm.t0, -1L);
          Riscv.Decode.Branch (Riscv.Decode.Bne, Riscv.Asm.t0, 0, -4L);
        ]
      @ Guest.Gprog.print " (resumed on the destination)\n"
      @ Guest.Gprog.shutdown
    in
    let handle = Platform.Testbed.cvm tb_a prog in
    let id = Hypervisor.Kvm.cvm_id handle in
    Platform.Testbed.enable_timer tb_a ~hart:0;
    Platform.Testbed.set_quantum tb_a ~hart:0 100_000;
    (match Zion.Monitor.run_vcpu src ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:10_000_000 with
    | Ok Zion.Monitor.Exit_timer -> ()
    | _ -> failwith "expected a timer exit on the source");
    (* Destination host, linked by a pair of seeded lossy channels. *)
    let tb_b = Platform.Testbed.create () in
    let dst = tb_b.Platform.Testbed.monitor in
    let session = "zionctl" in
    let faults =
      {
        Hypervisor.Channel.no_faults with
        drop = loss;
        dup;
        reorder;
        corrupt;
      }
    in
    let crash =
      Option.map
        (fun at -> { Hypervisor.Migrator.at; side = crash_side })
        crash_at
    in
    match
      Hypervisor.Migrator.run ~faults ~seed ?crash ~src ~dst ~cvm:id ~session ()
    with
    | Error msg ->
        Printf.eprintf "migration failed to terminate: %s\n" msg;
        exit 1
    | Ok (outcome, stats) -> (
        Format.printf "%a@." Hypervisor.Migrator.pp_stats stats;
        (* per-CVM protocol counters and the chunk-RTT histogram *)
        let dump =
          Metrics.Registry.dump (Zion.Monitor.registry src)
          ^ Metrics.Registry.dump (Zion.Monitor.registry dst)
        in
        List.iter
          (fun line -> if contains line "migrate" then print_endline line)
          (String.split_on_char '\n' dump);
        (match Hypervisor.Migrator.handoff_clean ~src ~dst ~cvm:id ~session with
        | Ok `Source -> print_endline "owner: source (guest resumable in place)"
        | Ok `Dest -> print_endline "owner: destination"
        | Error msg ->
            Printf.eprintf "OWNERSHIP VIOLATION: %s\n" msg;
            exit 1);
        match outcome with
        | Hypervisor.Migrator.Aborted reason ->
            Printf.printf "aborted: %s — resuming on the source\n" reason;
            (match
               Hypervisor.Kvm.run_cvm_to_completion tb_a.Platform.Testbed.kvm
                 handle ~hart:0 ~quantum:Platform.Testbed.quantum_cycles
                 ~max_slices:400
             with
            | Hypervisor.Kvm.C_shutdown -> ()
            | _ -> prerr_endline "warning: source guest did not shut down");
            print_string (Zion.Monitor.console_output src)
        | Hypervisor.Migrator.Committed id_b ->
            Printf.printf "committed: destination CVM %d owns the guest\n" id_b;
            (match
               Zion.Monitor.run_vcpu dst ~hart:0 ~cvm:id_b ~vcpu:0
                 ~max_steps:10_000_000
             with
            | Ok Zion.Monitor.Exit_shutdown -> ()
            | _ -> failwith "destination run failed");
            print_string (Zion.Monitor.console_output dst))
  in
  Cmd.v
    (Cmd.info "migrate"
       ~doc:
         "Migrate a live CVM between two hosts over a lossy channel with \
          the crash-safe chunked protocol")
    Term.(
      const run $ loss $ dup $ reorder $ corrupt $ seed $ crash_at $ crash_side)

(* ---------- telemetry ---------- *)

let telemetry_cmd =
  let exp =
    Arg.(
      value
      & opt (enum Platform.Telemetry.workloads) Platform.Telemetry.Switch
      & info [ "exp" ] ~docv:"WORKLOAD"
          ~doc:
            "Workload to trace: $(b,switch) (MMIO world-switch storm), \
             $(b,fault) (page-touch storm over a small pool), $(b,boot) \
             (hello-world guest) or $(b,redis) (RESP requests over \
             virtio-net, with the guest PC-sampling profiler on).")
  in
  let n =
    Arg.(
      value
      & opt (some int) None
      & info [ "n"; "iterations" ] ~docv:"N"
          ~doc:
            "Workload size: MMIO loads (switch), pages touched (fault) or \
             RESP requests (redis); boot ignores it. Default 50, or 24 \
             for redis.")
  in
  let format =
    Arg.(
      value
      & opt (enum Platform.Telemetry.formats) Platform.Telemetry.Table
      & info [ "format" ] ~docv:"FMT"
          ~doc:
            "$(b,table) (counters, histograms, TLB, PMP and cycle-ledger \
             tables), $(b,json) (counters, histograms, trace summary and \
             cycle ledger as one JSON document, plus the run totals for \
             redis), $(b,prom) (Prometheus text exposition), $(b,chrome) \
             (a chrome://tracing / Perfetto trace_event file), $(b,jsonl) \
             (one JSON object per trace event) or $(b,folded) (the redis \
             profile's folded stacks, flamegraph.pl input).")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE"
          ~doc:"Write the export to $(docv) instead of stdout.")
  in
  let check =
    Arg.(
      value & flag
      & info [ "check" ]
          ~doc:
            "Parse a json or prom export back with the built-in parser \
             and fail (exit 1) if it does not round-trip.")
  in
  let run exp n format out check =
    let r = Platform.Telemetry.run ?n exp in
    if r.Platform.Telemetry.outcome <> Hypervisor.Kvm.C_shutdown then
      prerr_endline "warning: traced guest did not shut down";
    let data = Platform.Telemetry.render format r in
    if check then begin
      let parsed =
        match format with
        | Platform.Telemetry.Prom ->
            Result.map
              (fun samples ->
                Printf.sprintf "%d prometheus samples parsed"
                  (List.length samples))
              (Metrics.Export.parse_prometheus data)
        | Platform.Telemetry.Json ->
            Result.map (fun _ -> "JSON parsed") (Metrics.Export.parse_json data)
        | _ -> Ok "nothing to parse"
      in
      match parsed with
      | Ok what -> prerr_endline ("check: " ^ what)
      | Error e ->
          Printf.eprintf "check FAILED: %s\n" e;
          exit 1
    end;
    match out with
    | Some path ->
        let oc = open_out path in
        output_string oc data;
        close_out oc;
        Printf.eprintf "wrote %s; %s" path (Platform.Telemetry.trace_summary r)
    | None -> print_string data
  in
  Cmd.v
    (Cmd.info "telemetry"
       ~doc:
         "Run one workload under the SM flight recorder and export what \
          it recorded: counters, histograms, cycle ledger, event trace \
          and (redis) guest profile")
    Term.(const run $ exp $ n $ format $ out $ check)

(* ---------- top ---------- *)

let print_health h =
  Metrics.Table.section
    (Printf.sprintf "tenants @ %d cycles (%d switches, %d internal faults)"
       h.Zion.Monitor.h_now h.Zion.Monitor.h_total_switches
       h.Zion.Monitor.h_internal_faults);
  Metrics.Table.print
    ~header:
      [ "cvm"; "state"; "entries"; "exits"; "sw/s"; "req p50"; "req p99";
        "faults"; "io supp"; "io coal"; "io rej"; "io fb"; "ch g/a/r";
        "ch rej"; "ch deg"; "flags" ]
    (List.map
       (fun t ->
         [
           string_of_int t.Zion.Monitor.th_cvm;
           t.Zion.Monitor.th_state;
           string_of_int t.Zion.Monitor.th_entries;
           string_of_int t.Zion.Monitor.th_exits;
           fixed 1 t.Zion.Monitor.th_switch_rate;
           fixed 0 t.Zion.Monitor.th_request_p50;
           fixed 0 t.Zion.Monitor.th_request_p99;
           string_of_int t.Zion.Monitor.th_faults;
           string_of_int t.Zion.Monitor.th_io_kicks_suppressed;
           string_of_int t.Zion.Monitor.th_io_coalesced;
           string_of_int t.Zion.Monitor.th_io_cal_rejections;
           string_of_int t.Zion.Monitor.th_io_fallbacks;
           Printf.sprintf "%d/%d/%d" t.Zion.Monitor.th_chan_grants
             t.Zion.Monitor.th_chan_accepts t.Zion.Monitor.th_chan_revokes;
           string_of_int t.Zion.Monitor.th_chan_peer_rejects;
           string_of_int t.Zion.Monitor.th_chan_degradations;
           String.concat ","
             ((if t.Zion.Monitor.th_stalled then [ "STALLED" ] else [])
             @
             match t.Zion.Monitor.th_quarantine_reason with
             | Some r -> [ "QUARANTINED:" ^ r ]
             | None -> []);
         ])
       h.Zion.Monitor.h_cvms)

let requests_arg =
  Arg.(
    value
    & opt int 24
    & info [ "requests" ] ~docv:"N"
        ~doc:"RESP requests the traced guest sends over virtio-net.")

let top_cmd =
  let refresh =
    Arg.(
      value
      & opt int 5
      & info [ "refresh" ] ~docv:"SLICES"
          ~doc:"Print a tenant-health snapshot every $(docv) expired \
                scheduling quanta.")
  in
  let run requests refresh =
    let refresh = max 1 refresh in
    (* A finer quantum than the scheduler default so the run spans
       enough slices to watch. *)
    let tb, stats =
      Platform.Exp_redis.run_traced ~requests ~quantum:50_000
        ~max_slices:4000
        ~on_slice:(fun slice tb ->
          if slice mod refresh = 0 then begin
            print_health
              (Zion.Monitor.health_snapshot tb.Platform.Testbed.monitor);
            print_newline ()
          end)
        ()
    in
    print_health (Zion.Monitor.health_snapshot tb.Platform.Testbed.monitor);
    ignore stats.Platform.Exp_redis.t_outcome;
    Printf.printf "run complete: %d/%d requests in %d cycles\n"
      stats.Platform.Exp_redis.t_completed
      stats.Platform.Exp_redis.t_requests
      stats.Platform.Exp_redis.t_total_cycles
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Drive a traced Redis CVM and print live per-tenant health \
          snapshots (switch rate, request quantiles, stall and \
          quarantine flags)")
    Term.(const run $ requests_arg $ refresh)

(* ---------- channel ---------- *)

let channel_cmd =
  let msg =
    Arg.(
      value
      & opt string "zion ping"
      & info [ "msg" ] ~docv:"STR"
          ~doc:
            "Message CVM A sends to CVM B over the attested channel \
             (at most the 2032-byte ring payload).")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"Emit the result as JSON instead of a table.")
  in
  let run msg json_out =
    let msg =
      if String.length msg > Zion.Layout.chan_max_msg then
        String.sub msg 0 Zion.Layout.chan_max_msg
      else msg
    in
    let tb = Platform.Testbed.create () in
    let kvm = tb.Platform.Testbed.kvm in
    let mon = tb.Platform.Testbed.monitor in
    (* First channel id is 1: both guest programs bind to it. *)
    let a =
      Platform.Testbed.cvm tb
        (Guest.Gprog.chan_send ~chan:1 ~msg @ Guest.Gprog.shutdown)
    in
    let b =
      Platform.Testbed.cvm tb
        (Guest.Gprog.chan_recv_putchar ~chan:1 @ Guest.Gprog.shutdown)
    in
    match
      Hypervisor.Kvm.connect_channel kvm a b ~nonce_a:"zionctl-challenge-a"
        ~nonce_b:"zionctl-challenge-b"
    with
    | Error e ->
        prerr_endline ("zionctl channel: handshake failed: " ^ e);
        exit 1
    | Ok ch ->
        let run h =
          Hypervisor.Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:100_000
            ~max_slices:1000
        in
        let oa = run a and ob = run b in
        let done_ok =
          oa = Hypervisor.Kvm.C_shutdown && ob = Hypervisor.Kvm.C_shutdown
        in
        let counter id name =
          Metrics.Registry.counter
            ~scope:(Metrics.Registry.Cvm id)
            (Zion.Monitor.registry mon) name
        in
        let ida = Hypervisor.Kvm.cvm_id a
        and idb = Hypervisor.Kvm.cvm_id b in
        let console = Zion.Monitor.console_output mon in
        (match Zion.Monitor.chan_revoke mon ~chan:ch ~cvm:ida with
        | Ok () -> ()
        | Error e ->
            prerr_endline
              ("zionctl channel: revoke failed: " ^ Zion.Ecall.error_to_string e);
            exit 1);
        let audit_clean =
          match Zion.Monitor.audit mon with Ok _ -> true | Error _ -> false
        in
        if json_out then begin
          let open Metrics.Export in
          let n = num_of_int in
          print_endline
            (json_to_string
               (Obj
                  [
                    ("chan", n ch);
                    ("completed", Bool done_ok);
                    ("console", Str console);
                    ("grants_a", n (counter ida "sm.chan.grants"));
                    ("accepts_b", n (counter idb "sm.chan.accepts"));
                    ("revokes_a", n (counter ida "sm.chan.revokes"));
                    ("audit_clean", Bool audit_clean);
                  ]))
        end
        else begin
          Metrics.Table.section "attested inter-CVM channel";
          print_string console;
          if console <> "" && console.[String.length console - 1] <> '\n' then
            print_newline ();
          Metrics.Table.print
            ~header:[ "chan"; "a"; "b"; "phase"; "strikes"; "reason" ]
            (List.map
               (fun ci ->
                 [
                   string_of_int ci.Zion.Monitor.ci_id;
                   string_of_int ci.Zion.Monitor.ci_a;
                   string_of_int ci.Zion.Monitor.ci_b;
                   ci.Zion.Monitor.ci_phase;
                   string_of_int ci.Zion.Monitor.ci_strikes;
                   (match ci.Zion.Monitor.ci_reason with
                   | Some r -> r
                   | None -> "-");
                 ])
               (Zion.Monitor.chan_list mon));
          Metrics.Table.print
            ~header:[ "metric"; "value" ]
            [
              [ "guest outcome"; (if done_ok then "shutdown" else "incomplete") ];
              [ "grants (A)"; string_of_int (counter ida "sm.chan.grants") ];
              [ "accepts (B)"; string_of_int (counter idb "sm.chan.accepts") ];
              [ "revokes (A)"; string_of_int (counter ida "sm.chan.revokes") ];
              [ "audit"; (if audit_clean then "clean" else "VIOLATIONS") ];
            ]
        end;
        if not (done_ok && audit_clean) then exit 1
  in
  Cmd.v
    (Cmd.info "channel"
       ~doc:
         "Attested inter-CVM channels: run the two-guest round-trip demo \
          (grant, mutual attestation verification, accept, guest send and \
          receive over the shared ring, revoke with scrub and precise \
          shootdown)")
    Term.(const run $ msg $ json)

(* ---------- costs ---------- *)

let costs_cmd =
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Emit the full model as a JSON object instead of a table.")
  in
  let run json_out =
    let fields = Riscv.Cost.to_assoc Riscv.Cost.default in
    if json_out then begin
      let open Metrics.Export in
      print_endline
        (json_to_string
           (Obj (List.map (fun (k, v) -> (k, num_of_int v)) fields)))
    end
    else begin
      Metrics.Table.section "calibrated cost model (cycles)";
      Metrics.Table.print ~header:[ "unit"; "cycles" ]
        (List.map (fun (k, v) -> [ k; string_of_int v ]) fields)
    end
  in
  Cmd.v
    (Cmd.info "costs" ~doc:"Print the calibrated cycle-cost model")
    Term.(const run $ json)

let () =
  let doc = "ZION confidential-VM architecture — simulation toolkit" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "zionctl" ~doc)
          [
            boot_cmd; attacks_cmd; audit_cmd; recover_cmd; fuzz_cmd;
            migrate_cmd; telemetry_cmd; top_cmd; channel_cmd; costs_cmd;
          ]))
