(* Attested inter-CVM channels: grant/accept lifecycle with report
   verification, nonce/measurement/epoch validation, strike-budget
   degradation, guest send/recv end-to-end, the packaged channel
   attacks, and teardown hygiene (audit + precise TLB shootdown). *)

open Riscv
module Kvm = Hypervisor.Kvm

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

let strict_config =
  { Zion.Monitor.default_config with Zion.Monitor.validate_shared_on_entry = true }

let make_stack ?config ?(pool_mib = 8) () =
  let machine = Machine.create ~dram_size:(mib 256) () in
  let monitor = Zion.Monitor.create ?config machine in
  let kvm = Hypervisor.Kvm.create ~machine ~monitor () in
  (match Hypervisor.Kvm.donate_secure_pool kvm ~mib:pool_mib with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (machine, monitor, kvm)

let make_guest kvm prog =
  match
    Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
      ~image:[ (guest_entry, Asm.program prog) ]
  with
  | Ok h -> h
  | Error e -> Alcotest.fail e

let meas mon id =
  Option.value ~default:"" (Zion.Monitor.cvm_measurement mon ~cvm:id)

let check_audit_clean mon what =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (what ^ ": audit dirty: " ^ String.concat "; " f)

let counter mon ~cvm name =
  Metrics.Registry.counter
    ~scope:(Metrics.Registry.Cvm cvm)
    (Zion.Monitor.registry mon) name

let connect kvm ha hb =
  match
    Kvm.connect_channel kvm ha hb ~nonce_a:"test-nonce-a" ~nonce_b:"test-nonce-b"
  with
  | Ok c -> c
  | Error e -> Alcotest.fail ("connect_channel: " ^ e)

let info mon chan =
  match Zion.Monitor.chan_info mon ~chan with
  | Some ci -> ci
  | None -> Alcotest.fail "channel missing from chan_info"

let fail_err what e = Alcotest.fail (what ^ ": " ^ Zion.Ecall.error_to_string e)

(* Does any hart's TLB still cache a translation landing on [pa]'s
   page? Revoke's flush_pa shootdown must make this false. *)
let tlb_maps_pa machine pa =
  let page = Int64.logand pa (Int64.lognot 0xFFFL) in
  Array.exists
    (fun h ->
      Tlb.fold h.Hart.tlb
        (fun ~asid:_ ~vmid:_ ~vpage:_ (e : Tlb.entry) acc ->
          acc
          || Int64.logand e.Tlb.pa_page (Int64.lognot 0xFFFL) = page)
        false)
    machine.Machine.harts

(* ---------- lifecycle ---------- *)

let lifecycle_tests =
  [
    Alcotest.test_case "grant/accept/revoke with report verification" `Quick
      (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
        let chan, rep_b =
          match
            Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"challenge-a"
              ~expect:(meas mon b)
          with
          | Ok r -> r
          | Error e -> fail_err "grant" e
        in
        (* The offer's report attests the peer over the caller's nonce. *)
        Alcotest.(check bool) "peer report MAC" true
          (Zion.Attest.verify_report rep_b);
        Alcotest.(check int) "peer report subject" b rep_b.Zion.Attest.cvm_id;
        Alcotest.(check string) "peer report nonce" "challenge-a"
          rep_b.Zion.Attest.nonce;
        Alcotest.(check bool) "peer report measurement" true
          (Zion.Attest.constant_time_eq rep_b.Zion.Attest.measurement
             (meas mon b));
        (* Tampering with any MAC-bound field must break verification. *)
        Alcotest.(check bool) "tampered nonce rejected" false
          (Zion.Attest.verify_report { rep_b with Zion.Attest.nonce = "x" });
        Alcotest.(check bool) "tampered epoch rejected" false
          (Zion.Attest.verify_report
             { rep_b with Zion.Attest.epoch = rep_b.Zion.Attest.epoch + 1 });
        let ci = info mon chan in
        Alcotest.(check string) "offered" "offered" ci.Zion.Monitor.ci_phase;
        (* The ring block is allocated (and scrubbed) at the offer, but
           only [chan_accept] maps it into either half. *)
        Alcotest.(check bool) "ring block held from the offer" true
          (ci.Zion.Monitor.ci_page <> None);
        (let rep_a =
           match
             Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"challenge-b"
               ~expect:(meas mon a)
           with
           | Ok r -> r
           | Error e -> fail_err "accept" e
         in
         Alcotest.(check bool) "granter report MAC" true
           (Zion.Attest.verify_report rep_a);
         Alcotest.(check int) "granter report subject" a
           rep_a.Zion.Attest.cvm_id);
        let ci = info mon chan in
        Alcotest.(check string) "established" "established"
          ci.Zion.Monitor.ci_phase;
        Alcotest.(check bool) "ring page live" true
          (ci.Zion.Monitor.ci_page <> None);
        Alcotest.(check int) "grants counted" 1 (counter mon ~cvm:a "sm.chan.grants");
        Alcotest.(check int) "accepts counted" 1
          (counter mon ~cvm:b "sm.chan.accepts");
        (match Zion.Monitor.chan_revoke mon ~chan ~cvm:b with
        | Ok () -> ()
        | Error e -> fail_err "revoke" e);
        let ci = info mon chan in
        Alcotest.(check string) "revoked" "revoked" ci.Zion.Monitor.ci_phase;
        Alcotest.(check bool) "ring page returned" true
          (ci.Zion.Monitor.ci_page = None);
        Alcotest.(check int) "revokes counted" 1
          (counter mon ~cvm:b "sm.chan.revokes");
        (* Idempotent on a dead channel; poll reports it dead. *)
        (match Zion.Monitor.chan_revoke mon ~chan ~cvm:a with
        | Ok () -> ()
        | Error e -> fail_err "re-revoke" e);
        (match Zion.Monitor.chan_poll mon ~chan with
        | Ok false -> ()
        | Ok true -> Alcotest.fail "dead channel polled live"
        | Error e -> fail_err "poll" e);
        check_audit_clean mon "lifecycle");
    Alcotest.test_case "connect_channel mutual verification" `Quick (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let chan = connect kvm ha hb in
        let ci = info mon chan in
        Alcotest.(check string) "established" "established"
          ci.Zion.Monitor.ci_phase;
        Alcotest.(check int) "granting endpoint" (Kvm.cvm_id ha)
          ci.Zion.Monitor.ci_a;
        Alcotest.(check int) "accepting endpoint" (Kvm.cvm_id hb)
          ci.Zion.Monitor.ci_b;
        Alcotest.(check int) "one channel listed" 1
          (List.length (Zion.Monitor.chan_list mon));
        check_audit_clean mon "connect");
  ]

(* ---------- validation ---------- *)

let validation_tests =
  [
    Alcotest.test_case "nonce length bounds" `Quick (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
        let try_nonce n =
          Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:n
            ~expect:(meas mon b)
        in
        (match try_nonce "" with
        | Error Zion.Ecall.Invalid_param -> ()
        | Ok _ -> Alcotest.fail "empty nonce accepted"
        | Error e -> fail_err "empty nonce" e);
        (match try_nonce (String.make (Zion.Attest.max_nonce_len + 1) 'n') with
        | Error Zion.Ecall.Invalid_param -> ()
        | Ok _ -> Alcotest.fail "oversized nonce accepted"
        | Error e -> fail_err "oversized nonce" e);
        (* Boundary length is fine. *)
        (match try_nonce (String.make Zion.Attest.max_nonce_len 'n') with
        | Ok _ -> ()
        | Error e -> fail_err "max-length nonce" e);
        Alcotest.(check int) "rejected grants uncounted" 1
          (counter mon ~cvm:a "sm.chan.grants"));
    Alcotest.test_case "measurement mismatch is a typed Denied" `Quick
      (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
        (match
           Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"n"
             ~expect:(String.make 32 '\x00')
         with
        | Error Zion.Ecall.Denied -> ()
        | Ok _ -> Alcotest.fail "wrong measurement granted"
        | Error e -> fail_err "grant mismatch" e);
        Alcotest.(check int) "peer_reject counted" 1
          (counter mon ~cvm:a "sm.chan.peer_rejects");
        Alcotest.(check int) "nothing allocated" 0
          (List.length (Zion.Monitor.chan_list mon));
        (* Accept-side mismatch: offer stands, mapping never goes live. *)
        let chan =
          match
            Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"n"
              ~expect:(meas mon b)
          with
          | Ok (c, _) -> c
          | Error e -> fail_err "grant" e
        in
        (match
           Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"m"
             ~expect:(String.make 32 '\xff')
         with
        | Error Zion.Ecall.Denied -> ()
        | Ok _ -> Alcotest.fail "wrong granter measurement accepted"
        | Error e -> fail_err "accept mismatch" e);
        Alcotest.(check bool) "mapping never went live" true
          ((info mon chan).Zion.Monitor.ci_phase <> "established");
        check_audit_clean mon "mismatch");
    Alcotest.test_case "only the designated peer may accept" `Quick (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let hc = make_guest kvm (Guest.Gprog.hello "c") in
        let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
        let chan =
          match
            Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"n"
              ~expect:(meas mon b)
          with
          | Ok (c, _) -> c
          | Error e -> fail_err "grant" e
        in
        (match
           Zion.Monitor.chan_accept mon ~chan ~cvm:(Kvm.cvm_id hc) ~nonce:"m"
             ~expect:(meas mon a)
         with
        | Error Zion.Ecall.Denied -> ()
        | Ok _ -> Alcotest.fail "third party accepted the offer"
        | Error e -> fail_err "interloper accept" e);
        (* Revoke from a non-endpoint is equally Denied. *)
        (match Zion.Monitor.chan_revoke mon ~chan ~cvm:(Kvm.cvm_id hc) with
        | Error Zion.Ecall.Denied -> ()
        | Ok () -> Alcotest.fail "third party revoked the offer"
        | Error e -> fail_err "interloper revoke" e);
        check_audit_clean mon "interloper");
    Alcotest.test_case "epoch drift between offer and accept" `Quick (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
        let chan =
          match
            Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"n"
              ~expect:(meas mon b)
          with
          | Ok (c, _) -> c
          | Error e -> fail_err "grant" e
        in
        (* A migration lock/abort bumps B's lifecycle epoch: the epoch
           captured at the offer is stale and the accept must refuse. *)
        (match Zion.Monitor.migrate_out_begin mon ~cvm:b ~session:"drift" with
        | Ok _ -> ()
        | Error e -> fail_err "migrate begin" e);
        (match Zion.Monitor.migrate_out_abort mon ~session:"drift" with
        | Ok () -> ()
        | Error e -> fail_err "migrate abort" e);
        (match
           Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"m"
             ~expect:(meas mon a)
         with
        | Error Zion.Ecall.Denied -> ()
        | Ok _ -> Alcotest.fail "stale-epoch offer went live"
        | Error e -> fail_err "stale accept" e);
        Alcotest.(check bool) "mapping never went live" true
          ((info mon chan).Zion.Monitor.ci_phase <> "established");
        check_audit_clean mon "epoch drift");
  ]

(* ---------- strike budget / degradation ---------- *)

let degradation_tests =
  [
    Alcotest.test_case "strike budget degrades the channel, not the CVM"
      `Quick (fun () ->
        let machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let chan = connect kvm ha hb in
        let pa =
          match (info mon chan).Zion.Monitor.ci_page with
          | Some pa -> pa
          | None -> Alcotest.fail "established channel without ring page"
        in
        (* Poison the a→b header: seq ahead of the SM's shadow with an
           impossible length, so every poll takes exactly one strike. *)
        Bus.write machine.Machine.bus pa 8 1L;
        Bus.write machine.Machine.bus (Int64.add pa 8L) 8 4096L;
        for i = 1 to Zion.Monitor.chan_max_strikes do
          match Zion.Monitor.chan_poll mon ~chan with
          | Ok live ->
              let expect_live = i < Zion.Monitor.chan_max_strikes in
              Alcotest.(check bool)
                (Printf.sprintf "liveness after strike %d" i)
                expect_live live
          | Error e -> fail_err "poll" e
        done;
        let ci = info mon chan in
        Alcotest.(check string) "degraded" "degraded" ci.Zion.Monitor.ci_phase;
        Alcotest.(check int) "strikes at budget" Zion.Monitor.chan_max_strikes
          ci.Zion.Monitor.ci_strikes;
        Alcotest.(check bool) "ring page scrubbed and returned" true
          (ci.Zion.Monitor.ci_page = None);
        (match ci.Zion.Monitor.ci_reason with
        | Some r when String.length r > 0 -> ()
        | _ -> Alcotest.fail "degraded channel carries no reason");
        Alcotest.(check int) "one degradation counted" 1
          (counter mon ~cvm:(Kvm.cvm_id hb) "sm.chan.degradations"
          + counter mon ~cvm:(Kvm.cvm_id ha) "sm.chan.degradations");
        (* One-way: degradation quarantines the channel, never the CVM. *)
        List.iter
          (fun h ->
            Alcotest.(check bool) "endpoint not quarantined" false
              (Zion.Monitor.cvm_state mon ~cvm:(Kvm.cvm_id h)
              = Some Zion.Cvm.Quarantined))
          [ ha; hb ];
        (match Zion.Monitor.chan_poll mon ~chan with
        | Ok false -> ()
        | Ok true -> Alcotest.fail "degraded channel polled live"
        | Error e -> fail_err "post-degrade poll" e);
        check_audit_clean mon "degradation");
  ]

(* ---------- guest data path ---------- *)

let guest_tests =
  [
    Alcotest.test_case "guest send/recv end-to-end" `Quick (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha =
          make_guest kvm
            (Guest.Gprog.chan_send ~chan:1 ~msg:"Zion" @ Guest.Gprog.shutdown)
        in
        let hb =
          make_guest kvm
            (Guest.Gprog.chan_recv_putchar ~chan:1 @ Guest.Gprog.shutdown)
        in
        let chan = connect kvm ha hb in
        Alcotest.(check int) "first channel id" 1 chan;
        let run h what =
          match
            Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:100_000
              ~max_slices:100
          with
          | Kvm.C_shutdown -> ()
          | _ -> Alcotest.fail (what ^ " did not shut down")
        in
        run ha "sender";
        run hb "receiver";
        (* 'S' from the send ecall, then the message's first byte. *)
        Alcotest.(check string) "console" "SZ" (Zion.Monitor.console_output mon);
        check_audit_clean mon "guest e2e");
    Alcotest.test_case "recv on an idle channel reports idle" `Quick
      (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb =
          make_guest kvm
            (Guest.Gprog.chan_recv_putchar ~chan:1 @ Guest.Gprog.shutdown)
        in
        (match connect kvm ha hb with
        | 1 -> ()
        | n -> Alcotest.failf "unexpected channel id %d" n);
        (match
           Kvm.run_cvm_to_completion kvm hb ~hart:0 ~quantum:100_000
             ~max_slices:100
         with
        | Kvm.C_shutdown -> ()
        | _ -> Alcotest.fail "receiver did not shut down");
        Alcotest.(check string) "idle marker" "-"
          (Zion.Monitor.console_output mon);
        check_audit_clean mon "idle recv");
  ]

(* ---------- packaged attacks ---------- *)

let attack_case name vector =
  Alcotest.test_case name `Quick (fun () ->
      let _machine, mon, kvm = make_stack ~config:strict_config () in
      let ha = make_guest kvm (Guest.Gprog.hello "a") in
      let hb = make_guest kvm (Guest.Gprog.hello "b") in
      (match vector kvm ha hb with
      | Platform.Attacks.Blocked _ -> ()
      | Platform.Attacks.Leaked why -> Alcotest.fail ("LEAKED: " ^ why));
      check_audit_clean mon name)

let attack_tests =
  [
    attack_case "seq runaway degrades within budget"
      Platform.Attacks.chan_poison_seq;
    attack_case "host alias of the live ring" Platform.Attacks.chan_map_ring;
    (* Control for the two alias vectors: the same leaf aimed at normal
       memory passes the hardened entry sweep. *)
    Alcotest.test_case "hardened entry accepts a shared alias of normal memory"
      `Quick (fun () ->
        let _machine, mon, kvm = make_stack ~config:strict_config () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let chan = connect kvm ha hb in
        let shared = Kvm.cvm_shared_map ha in
        let normal =
          match
            Hypervisor.Shared_map.lookup shared
              ~gpa:(Guest.Swiotlb.slot_gpa 5)
          with
          | Some pa -> pa
          | None -> Alcotest.fail "bounce slot unmapped"
        in
        (* Move the page rather than alias it twice, which the audit
           would flag. *)
        Hypervisor.Shared_map.unmap shared ~gpa:(Guest.Swiotlb.slot_gpa 5);
        Hypervisor.Shared_map.map_secure_page_for_attack shared
          ~gpa:Zion.Layout.shared_gpa_base ~pa:normal;
        (match
           Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:(Kvm.cvm_id ha) ~vcpu:0
             ~max_steps:100
         with
        | Ok _ -> ()
        | Error e -> fail_err "entry" e);
        Alcotest.(check bool) "not quarantined" true
          (Zion.Monitor.cvm_state mon ~cvm:(Kvm.cvm_id ha)
          <> Some Zion.Cvm.Quarantined);
        Alcotest.(check string) "channel live" "established"
          (info mon chan).Zion.Monitor.ci_phase;
        check_audit_clean mon "normal alias");
    attack_case "stale-epoch accept refused"
      Platform.Attacks.chan_accept_stale_epoch;
    attack_case "grantor destroyed mid-accept"
      Platform.Attacks.chan_peer_destroyed_mid_accept;
    attack_case "endpoint quarantined at a live channel"
      Platform.Attacks.chan_quarantined_peer;
    (* A vector that cannot reach its attack is broken, not blocked. *)
    Alcotest.test_case "a vector whose handshake fails raises" `Quick
      (fun () ->
        let _machine, mon, kvm = make_stack ~config:strict_config () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        (match Zion.Monitor.destroy_cvm mon ~cvm:(Kvm.cvm_id hb) with
        | Ok () -> ()
        | Error e -> fail_err "destroy" e);
        match Platform.Attacks.chan_poison_seq kvm ha hb with
        | exception Invalid_argument _ -> ()
        | Platform.Attacks.Blocked why -> Alcotest.fail ("reported blocked: " ^ why)
        | Platform.Attacks.Leaked why -> Alcotest.fail ("reported leaked: " ^ why));
  ]

(* ---------- teardown hygiene ---------- *)

let teardown_tests =
  [
    Alcotest.test_case "endpoint destroy sweeps the channel" `Quick (fun () ->
        let _machine, mon, kvm = make_stack () in
        let ha = make_guest kvm (Guest.Gprog.hello "a") in
        let hb =
          make_guest kvm (Guest.Gprog.hello "b" @ Guest.Gprog.shutdown)
        in
        let chan = connect kvm ha hb in
        (match Zion.Monitor.destroy_cvm mon ~cvm:(Kvm.cvm_id ha) with
        | Ok () -> ()
        | Error e -> fail_err "destroy" e);
        let ci = info mon chan in
        Alcotest.(check bool) "channel dead" true
          (ci.Zion.Monitor.ci_phase <> "established");
        Alcotest.(check bool) "ring page returned" true
          (ci.Zion.Monitor.ci_page = None);
        (* The surviving endpoint keeps running. *)
        (match
           Kvm.run_cvm_to_completion kvm hb ~hart:0 ~quantum:100_000
             ~max_slices:100
         with
        | Kvm.C_shutdown -> ()
        | _ -> Alcotest.fail "survivor did not run to completion");
        check_audit_clean mon "destroy sweep");
    Alcotest.test_case "revoke leaves no dangling TLB entry" `Quick (fun () ->
        (* Retention mode keeps the sender's cached translation of the
           ring page warm across the exit — the revoke's flush_pa
           shootdown is what has to kill it. *)
        let retain =
          { Zion.Monitor.default_config with Zion.Monitor.tlb_retention = true }
        in
        let machine, mon, kvm = make_stack ~config:retain () in
        (* The sender touches the ring page itself (zero-ecall data
           plane), so its translation is cached in a hart TLB before
           the revoke — exactly what the flush_pa shootdown must kill. *)
        let ha =
          make_guest kvm
            (Guest.Gprog.chan_direct_send ~chan:1 ~from_a:true ~byte:'d'
               ~len:16
            @ Guest.Gprog.shutdown)
        in
        let hb = make_guest kvm (Guest.Gprog.hello "b") in
        let chan = connect kvm ha hb in
        let pa =
          match (info mon chan).Zion.Monitor.ci_page with
          | Some pa -> pa
          | None -> Alcotest.fail "no ring page"
        in
        (match
           Kvm.run_cvm_to_completion kvm ha ~hart:0 ~quantum:100_000
             ~max_slices:100
         with
        | Kvm.C_shutdown -> ()
        | _ -> Alcotest.fail "sender did not shut down");
        Alcotest.(check bool) "ring translation cached before revoke" true
          (tlb_maps_pa machine pa);
        (match Zion.Monitor.chan_revoke mon ~chan ~cvm:(Kvm.cvm_id hb) with
        | Ok () -> ()
        | Error e -> fail_err "revoke" e);
        Alcotest.(check bool) "no hart TLB maps the old ring page" false
          (tlb_maps_pa machine pa);
        check_audit_clean mon "revoke shootdown");
  ]

let suite =
  [
    ("channels:lifecycle", lifecycle_tests);
    ("channels:validation", validation_tests);
    ("channels:degradation", degradation_tests);
    ("channels:guest", guest_tests);
    ("channels:attacks", attack_tests);
    ("channels:teardown", teardown_tests);
  ]
