(* Crash-safe migration protocol: chunked transfer over a lossy channel,
   two-phase ownership handoff, crash-at-every-step recovery. *)

open Riscv
module Mp = Zion.Migrate_proto
module Mg = Hypervisor.Migrator
module Ch = Hypervisor.Channel

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

let make_platform () =
  let machine = Machine.create ~dram_size:(mib 64) () in
  let mon = Zion.Monitor.create machine in
  (match
     Zion.Monitor.register_secure_region mon
       ~base:(Int64.add Bus.dram_base (mib 32))
       ~size:(mib 8)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  mon

(* A CVM with a few pages of recognisable content; it is never run, so
   the payload is arbitrary bytes rather than code. *)
let make_cvm mon =
  let id =
    Result.get_ok (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
  in
  let payload =
    String.concat ""
      (List.init 3 (fun i -> String.make 4096 (Char.chr (Char.code 'a' + i))))
  in
  (match Zion.Monitor.load_image mon ~cvm:id ~gpa:guest_entry payload with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
  id

let check_audit name mon =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error findings ->
      Alcotest.failf "%s: audit violations: %s" name
        (String.concat "; " findings)

let check_clean ~src ~dst ~cvm ~session expect =
  match Mg.handoff_clean ~src ~dst ~cvm ~session with
  | Error msg -> Alcotest.failf "handoff not clean: %s" msg
  | Ok side ->
      (match expect with
      | Some e ->
          Alcotest.(check bool)
            "owner side" true
            (e = side)
      | None -> ());
      check_audit "src" src;
      check_audit "dst" dst

(* ---------- wire format ---------- *)

let wire_tests =
  let pkt payload =
    { Mp.p_session = "sess-1"; p_epoch = 3; p_ctx = Metrics.Span.none;
      p_payload = payload }
  in
  [
    Alcotest.test_case "codec round-trips every payload" `Quick (fun () ->
        List.iter
          (fun p ->
            match Mp.decode (Mp.encode (pkt p)) with
            | Error e -> Alcotest.failf "decode failed: %s" e
            | Ok got ->
                Alcotest.(check string) "session" "sess-1" got.Mp.p_session;
                Alcotest.(check int) "epoch" 3 got.Mp.p_epoch;
                Alcotest.(check bool) "payload" true (got.Mp.p_payload = p))
          [
            Mp.Offer
              { total = 7; blob_len = 6500; chunk_size = 1024; tag = "tag!" };
            Mp.Chunk { seq = 4; data = String.make 1024 'x' };
            Mp.Query;
            Mp.Commit;
            Mp.Abort "because";
            Mp.Ack { upto = 5 };
            Mp.Status (Mp.St_receiving 2);
            Mp.Status (Mp.St_prepared "tag!");
            Mp.Status (Mp.St_committed "tag!");
            Mp.Status (Mp.St_aborted "no");
            Mp.Status Mp.St_unknown;
          ])
    ;
    Alcotest.test_case "any single byte flip is rejected" `Quick (fun () ->
        let msg =
          Mp.encode (pkt (Mp.Chunk { seq = 1; data = "payload-bytes" }))
        in
        for i = 0 to String.length msg - 1 do
          let b = Bytes.of_string msg in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 0x40));
          match Mp.decode (Bytes.to_string b) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "flip at byte %d accepted" i
        done)
    ;
    Alcotest.test_case "truncations are rejected" `Quick (fun () ->
        let msg = Mp.encode (pkt (Mp.Ack { upto = 9 })) in
        for len = 0 to String.length msg - 1 do
          match Mp.decode (String.sub msg 0 len) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "truncation to %d accepted" len
        done)
    ;
  ]

(* ---------- protocol runs ---------- *)

let run_migration ?faults ?seed ?crash ?config mon_pair =
  let src, dst = mon_pair in
  let cvm = make_cvm src in
  let session = "mig-test" in
  let r =
    Mg.run ?config ?faults ?seed ?crash ~src ~dst ~cvm ~session ()
  in
  (cvm, session, r)

let proto_tests =
  [
    Alcotest.test_case "clean channel: commits and hands off" `Quick
      (fun () ->
        let src = make_platform () and dst = make_platform () in
        let cvm, session, r = run_migration (src, dst) in
        match r with
        | Error e -> Alcotest.fail e
        | Ok (Mg.Aborted reason, _) -> Alcotest.failf "aborted: %s" reason
        | Ok (Mg.Committed id, stats) ->
            Alcotest.(check bool)
              "source scrubbed" true
              (Zion.Monitor.cvm_state src ~cvm = Some Zion.Cvm.Destroyed);
            Alcotest.(check bool)
              "dest suspended" true
              (Zion.Monitor.cvm_state dst ~cvm:id = Some Zion.Cvm.Suspended);
            Alcotest.(check int)
              "no retransmits on a clean channel" 0 stats.Mg.retransmits;
            check_clean ~src ~dst ~cvm ~session (Some `Dest))
    ;
    Alcotest.test_case "migrated guest state survives the chunked path"
      `Quick (fun () ->
        let src = make_platform () and dst = make_platform () in
        let measurement cvm mon = Zion.Monitor.cvm_measurement mon ~cvm in
        let cvm = make_cvm src in
        let m_before = measurement cvm src in
        match
          Mg.run ~src ~dst ~cvm ~session:"mig-content" ()
        with
        | Ok (Mg.Committed id, _) ->
            Alcotest.(check bool)
              "measurement carried over" true
              (measurement id dst = m_before && m_before <> None)
        | Ok (Mg.Aborted r, _) -> Alcotest.fail r
        | Error e -> Alcotest.fail e)
    ;
    Alcotest.test_case "completes under 20% loss + dup + reorder + corrupt"
      `Quick (fun () ->
        let faults =
          {
            Ch.drop = 0.20;
            dup = 0.10;
            reorder = 0.15;
            corrupt = 0.05;
            delay_max = 2;
            partition = [];
          }
        in
        let committed = ref 0 in
        for seed = 1 to 5 do
          let src = make_platform () and dst = make_platform () in
          let cvm, session, r = run_migration ~faults ~seed (src, dst) in
          (match r with
          | Error e -> Alcotest.failf "seed %d: %s" seed e
          | Ok (Mg.Committed _, stats) ->
              incr committed;
              Alcotest.(check bool)
                "losses actually happened" true
                (stats.Mg.fwd.Ch.dropped + stats.Mg.rev.Ch.dropped > 0)
          | Ok (Mg.Aborted _, _) -> ());
          check_clean ~src ~dst ~cvm ~session None
        done;
        (* the retry budget must ride out 20% loss essentially always *)
        Alcotest.(check bool)
          "most seeds commit" true (!committed >= 4))
    ;
    Alcotest.test_case "reassembly under heavy reorder and duplication"
      `Quick (fun () ->
        let faults =
          {
            Ch.no_faults with
            Ch.dup = 0.5;
            reorder = 0.6;
            delay_max = 4;
          }
        in
        let src = make_platform () and dst = make_platform () in
        let cvm, session, r = run_migration ~faults ~seed:42 (src, dst) in
        match r with
        | Ok (Mg.Committed _, stats) ->
            Alcotest.(check bool)
              "duplicates were absorbed" true (stats.Mg.dup_chunks > 0
                                               || stats.Mg.rejected > 0
                                               || stats.Mg.fwd.Ch.duplicated
                                                  > 0);
            check_clean ~src ~dst ~cvm ~session (Some `Dest)
        | Ok (Mg.Aborted reason, _) -> Alcotest.failf "aborted: %s" reason
        | Error e -> Alcotest.fail e)
    ;
    Alcotest.test_case "total blackout: bounded retries, source resumes"
      `Quick (fun () ->
        let faults = { Ch.no_faults with Ch.drop = 1.0 } in
        let src = make_platform () and dst = make_platform () in
        let cvm, session, r = run_migration ~faults ~seed:7 (src, dst) in
        (match r with
        | Ok (Mg.Aborted _, stats) ->
            Alcotest.(check bool)
              "retries were bounded" true
              (stats.Mg.retransmits
               <= Mp.default_config.Mp.retry_budget + 2)
        | Ok (Mg.Committed _, _) ->
            Alcotest.fail "committed through a dead channel"
        | Error e -> Alcotest.fail e);
        (* the source reactivated its instance and still owns the guest *)
        Alcotest.(check bool)
          "source resumed" true
          (Zion.Monitor.cvm_state src ~cvm = Some Zion.Cvm.Suspended);
        check_clean ~src ~dst ~cvm ~session (Some `Source))
    ;
    Alcotest.test_case "partition heals mid-transfer" `Quick (fun () ->
        let faults = { Ch.no_faults with Ch.partition = [ (3, 40) ] } in
        let src = make_platform () and dst = make_platform () in
        let cvm, session, r = run_migration ~faults ~seed:3 (src, dst) in
        match r with
        | Ok (Mg.Committed _, stats) ->
            Alcotest.(check bool)
              "sends were partitioned" true
              (stats.Mg.fwd.Ch.partitioned + stats.Mg.rev.Ch.partitioned > 0);
            check_clean ~src ~dst ~cvm ~session (Some `Dest)
        | Ok (Mg.Aborted reason, _) -> Alcotest.failf "aborted: %s" reason
        | Error e -> Alcotest.fail e)
    ;
    Alcotest.test_case "replay of a committed session is rejected" `Quick
      (fun () ->
        let src = make_platform () and dst = make_platform () in
        let _, session, r = run_migration (src, dst) in
        (match r with
        | Ok (Mg.Committed _, _) -> ()
        | _ -> Alcotest.fail "setup migration failed");
        let ok = function
          | Ok v -> v
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        in
        let denied what = function
          | Error Zion.Ecall.Denied -> ()
          | Error e ->
              Alcotest.failf "%s: wrong error: %s" what
                (Zion.Ecall.error_to_string e)
          | Ok _ -> Alcotest.failf "%s accepted" what
        in
        (* fresh, valid blob from another CVM, replayed under the
           committed session id: must be refused *)
        let other = make_cvm src in
        let blob, epoch =
          ok (Zion.Monitor.migrate_out_begin src ~cvm:other ~session:"direct")
        in
        denied "replayed session"
          (Zion.Monitor.migrate_in_prepare dst ~session ~epoch:99 blob);
        (* hand that blob off; a re-prepare of its own session at a newer
           epoch (a source recovery re-begin) is still accepted *)
        ignore
          (ok
             (Zion.Monitor.migrate_in_prepare dst ~session:"direct" ~epoch
                blob));
        ignore
          (ok
             (Zion.Monitor.migrate_in_prepare dst ~session:"direct"
                ~epoch:(epoch + 1) blob));
        ok (Zion.Monitor.migrate_out_commit src ~session:"direct");
        ignore (ok (Zion.Monitor.migrate_in_commit dst ~session:"direct"));
        (* the committed blob replayed under a fresh session id would be
           a second live copy: refused before anything is allocated *)
        let free () = Zion.Secmem.free_blocks (Zion.Monitor.secmem dst) in
        let free0 = free () in
        denied "replayed blob"
          (Zion.Monitor.migrate_in_prepare dst ~session:"s-replay" ~epoch blob);
        Alcotest.(check int) "nothing allocated" free0 (free ());
        check_audit "dst" dst)
    ;
    Alcotest.test_case "over-budget stall report is rejected, not recorded"
      `Quick (fun () ->
        let src = make_platform () in
        let cvm = make_cvm src in
        (match
           Zion.Monitor.migrate_out_begin ~budget:4 src ~cvm ~session:"s"
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (* counts inside the declared budget are recorded *)
        (match Zion.Monitor.migrate_note_stalls src ~session:"s" 4 with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        check_audit "within budget" src;
        (* a host framing the session past its declared budget — or with
           a negative count — gets a typed reject, and the audit stays
           clean: the SM never records host garbage it would then have
           to blame on itself. *)
        (match Zion.Monitor.migrate_note_stalls src ~session:"s" 5 with
        | Error Zion.Ecall.Invalid_param -> ()
        | Ok () -> Alcotest.fail "over-budget stall report accepted"
        | Error e ->
            Alcotest.fail ("wrong error: " ^ Zion.Ecall.error_to_string e));
        (match Zion.Monitor.migrate_note_stalls src ~session:"s" (-1) with
        | Error Zion.Ecall.Invalid_param -> ()
        | _ -> Alcotest.fail "negative stall report not rejected");
        check_audit "after rejected reports" src;
        (* clean up: abort reactivates the CVM *)
        ignore (Zion.Monitor.migrate_out_abort src ~session:"s");
        check_audit "after abort" src)
    ;
    Alcotest.test_case "second out-session for the same CVM is refused"
      `Quick (fun () ->
        let src = make_platform () in
        let cvm = make_cvm src in
        (match Zion.Monitor.migrate_out_begin src ~cvm ~session:"one" with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (match Zion.Monitor.migrate_out_begin src ~cvm ~session:"two" with
        | Error Zion.Ecall.Bad_state -> ()
        | Error e ->
            Alcotest.failf "wrong error: %s" (Zion.Ecall.error_to_string e)
        | Ok _ -> Alcotest.fail "double migration accepted");
        (* same session re-begin (recovery) is allowed and bumps epoch *)
        (match Zion.Monitor.migrate_out_begin src ~cvm ~session:"one" with
        | Ok (_, epoch) -> Alcotest.(check int) "epoch bumped" 2 epoch
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        check_audit "src" src)
    ;
    Alcotest.test_case "re-begin reuses the nonce: blobs byte-identical"
      `Quick (fun () ->
        let src = make_platform () in
        let cvm = make_cvm src in
        let b1, _ =
          Result.get_ok (Zion.Monitor.migrate_out_begin src ~cvm ~session:"n")
        in
        let b2, _ =
          Result.get_ok (Zion.Monitor.migrate_out_begin src ~cvm ~session:"n")
        in
        Alcotest.(check bool) "identical" true (String.equal b1 b2))
    ;
  ]

(* ---------- crash-at-every-step sweep ---------- *)

let crash_tests =
  [
    Alcotest.test_case "crash sweep: every step, both sides" `Quick
      (fun () ->
        (* baseline run to learn how many protocol steps each side takes *)
        let src = make_platform () and dst = make_platform () in
        let _, _, r = run_migration (src, dst) in
        let s_steps, d_steps =
          match r with
          | Ok (Mg.Committed _, stats) ->
              (stats.Mg.src_events, stats.Mg.dst_events)
          | _ -> Alcotest.fail "baseline migration failed"
        in
        Alcotest.(check bool) "baseline has steps" true (s_steps > 3);
        let sweep side steps =
          for at = 1 to steps do
            let src = make_platform () and dst = make_platform () in
            let cvm, session, r =
              run_migration ~crash:{ Mg.at; side } (src, dst)
            in
            (match r with
            | Error e ->
                Alcotest.failf "crash %s@%d: %s" (Mg.side_to_string side) at
                  e
            | Ok _ -> ());
            (* exactly one owner, loser scrubbed, audits clean — for
               every crash point on either side *)
            (match Mg.handoff_clean ~src ~dst ~cvm ~session with
            | Ok _ -> ()
            | Error msg ->
                Alcotest.failf "crash %s@%d: %s" (Mg.side_to_string side) at
                  msg);
            (match Zion.Monitor.audit src with
            | Ok _ -> ()
            | Error f ->
                Alcotest.failf "crash %s@%d: src audit: %s"
                  (Mg.side_to_string side) at (String.concat "; " f));
            match Zion.Monitor.audit dst with
            | Ok _ -> ()
            | Error f ->
                Alcotest.failf "crash %s@%d: dst audit: %s"
                  (Mg.side_to_string side) at (String.concat "; " f)
          done
        in
        sweep Mg.Source (s_steps + 2);
        sweep Mg.Dest (d_steps + 2))
    ;
    Alcotest.test_case "crash under loss still resolves ownership" `Quick
      (fun () ->
        let faults = { Ch.no_faults with Ch.drop = 0.15; reorder = 0.1 } in
        List.iter
          (fun (side, at, seed) ->
            let src = make_platform () and dst = make_platform () in
            let cvm, session, r =
              run_migration ~faults ~seed ~crash:{ Mg.at; side } (src, dst)
            in
            (match r with
            | Error e ->
                Alcotest.failf "%s@%d seed %d: %s" (Mg.side_to_string side)
                  at seed e
            | Ok _ -> ());
            check_clean ~src ~dst ~cvm ~session None)
          [
            (Mg.Source, 5, 11);
            (Mg.Source, 17, 12);
            (Mg.Dest, 4, 13);
            (Mg.Dest, 13, 14);
          ])
    ;
  ]

let suite =
  [
    ("migrate_proto.wire", wire_tests);
    ("migrate_proto.runs", proto_tests);
    ("migrate_proto.crash", crash_tests);
  ]
