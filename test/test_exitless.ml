(* Exitless virtio rings: happy path (real guest + OCaml-driven),
   doorbell coalescing, the Check-after-Load poison sweep over every
   host-writable ring field, the stall watchdog, bounce-slot hygiene,
   the SWIOTLB audit section, and the packaged ring attacks. *)

open Riscv
module Sw = Guest.Swiotlb
module Ring = Hypervisor.Virtio_ring
module Kvm = Hypervisor.Kvm

let mib n = Int64.mul (Int64.of_int n) 0x100000L
let guest_entry = 0x10000L

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

let enable kvm h =
  match Kvm.enable_exitless_io kvm h with
  | Ok g -> g
  | Error e -> Alcotest.fail e

let check_audit_clean mon what =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error f -> Alcotest.fail (what ^ ": audit dirty: " ^ String.concat "; " f)

(* Fill a premapped bounce slot through the shared map (what the guest
   kernel's memcpy into the SWIOTLB would do). *)
let fill_slot machine h ~slot ~byte ~len =
  match
    Hypervisor.Shared_map.lookup (Kvm.cvm_shared_map h) ~gpa:(Sw.slot_gpa slot)
  with
  | None -> Alcotest.fail "bounce slot unmapped"
  | Some pa ->
      Bus.write_bytes machine.Machine.bus pa (String.make len byte)

let ring_poke kvm h ~off ~width v =
  ignore
    (Ring.poke
       ~bus:(Kvm.machine kvm).Machine.bus
       ~translate:(fun gpa ->
         Hypervisor.Shared_map.lookup (Kvm.cvm_shared_map h) ~gpa)
       ~off ~width v
      : bool)

let counter mon h name =
  Metrics.Registry.counter
    ~scope:(Metrics.Registry.Cvm (Kvm.cvm_id h))
    (Zion.Monitor.registry mon) name

(* ---------- happy path ---------- *)

let happy_tests =
  [
    Alcotest.test_case "OCaml-driven exitless blk write round trip" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        fill_slot machine h ~slot:10 ~byte:'R' ~len:512;
        (match
           Ring.submit g ~op:Sw.op_blk_write ~len:512
             ~data_gpa:(Sw.slot_gpa 10) ~meta:21L ()
         with
        | Ok id -> Alcotest.(check int) "desc id" 0 id
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Alcotest.(check int) "one completion serviced" 1
          (Kvm.service_exitless kvm h);
        let n, v = Kvm.exitless_poll kvm h in
        Alcotest.(check int) "one completion consumed" 1 n;
        Alcotest.(check string) "verdict" "ok" (Ring.verdict_to_string v);
        let blk = Hypervisor.Mmio_emul.blk (Kvm.devices kvm) in
        Alcotest.(check string)
          "disk contents" (String.make 16 'R')
          (Hypervisor.Virtio_blk.read_backing blk ~sector:21 ~len:16);
        Alcotest.(check int) "no MMIO exits" 0 (Kvm.mmio_exits_serviced kvm);
        Alcotest.(check int) "kick suppressed" 1
          (counter monitor h "sm.io.kicks_suppressed");
        check_audit_clean monitor "after exitless round trip");
    Alcotest.test_case "exitless net tx/rx through the ring" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        let net = Hypervisor.Mmio_emul.net (Kvm.devices kvm) in
        Hypervisor.Virtio_net.set_peer net (fun pkt ->
            if pkt = "PING" then Some "PONG" else None);
        (* copy "PING" into slot 11 *)
        (match
           Hypervisor.Shared_map.lookup (Kvm.cvm_shared_map h)
             ~gpa:(Sw.slot_gpa 11)
         with
        | None -> Alcotest.fail "slot unmapped"
        | Some pa -> Bus.write_bytes machine.Machine.bus pa "PING");
        (match
           Ring.submit g ~op:Sw.op_net_tx ~len:4 ~data_gpa:(Sw.slot_gpa 11)
             ~meta:0L ()
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        ignore (Kvm.service_exitless kvm h : int);
        ignore (Kvm.exitless_poll kvm h : int * Ring.verdict);
        (* now pull the reply back through an RX descriptor *)
        (match
           Ring.submit g ~op:Sw.op_net_rx ~len:Sw.slot_size
             ~data_gpa:(Sw.slot_gpa 12) ~meta:0L ()
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        ignore (Kvm.service_exitless kvm h : int);
        let n, v = Kvm.exitless_poll kvm h in
        Alcotest.(check int) "rx consumed" 1 n;
        Alcotest.(check string) "verdict" "ok" (Ring.verdict_to_string v);
        (match
           Hypervisor.Shared_map.lookup (Kvm.cvm_shared_map h)
             ~gpa:(Sw.slot_gpa 12)
         with
        | None -> Alcotest.fail "slot unmapped"
        | Some pa ->
            Alcotest.(check string)
              "reply delivered" "PONG"
              (Bus.read_bytes machine.Machine.bus pa 4));
        Alcotest.(check int) "tx packets" 1
          (Hypervisor.Virtio_net.tx_count net);
        check_audit_clean monitor "after exitless net");
    Alcotest.test_case
      "real guest: batched ring submits, zero I/O world switches" `Quick
      (fun () ->
        let _machine, monitor, kvm = make_stack () in
        let batch = 8 in
        let prog =
          List.concat
            (List.init batch (fun i ->
                 Guest.Gprog.ring_blk_write ~seq:i ~sector:(30 + i) ~len:64
                   ~byte:(Char.chr (Char.code 'a' + i))
                   ~slot:(20 + i)))
          @ Guest.Gprog.ring_wait_used ~target:batch
          @ Guest.Gprog.shutdown
        in
        let h = make_guest kvm prog in
        ignore (enable kvm h : Ring.guest);
        (match
           Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:100_000
             ~max_slices:200
         with
        | Kvm.C_shutdown -> ()
        | Kvm.C_timer | Kvm.C_limit -> Alcotest.fail "guest never completed"
        | Kvm.C_denied -> Alcotest.fail "denied"
        | Kvm.C_error e -> Alcotest.fail e);
        let blk = Hypervisor.Mmio_emul.blk (Kvm.devices kvm) in
        for i = 0 to batch - 1 do
          Alcotest.(check string)
            (Printf.sprintf "sector %d" (30 + i))
            (String.make 8 (Char.chr (Char.code 'a' + i)))
            (Hypervisor.Virtio_blk.read_backing blk ~sector:(30 + i) ~len:8)
        done;
        Alcotest.(check int) "no MMIO exits for I/O" 0
          (Kvm.mmio_exits_serviced kvm);
        Alcotest.(check int) "kicks suppressed" batch
          (counter monitor h "sm.io.kicks_suppressed");
        (match Kvm.exitless_host kvm h with
        | None -> Alcotest.fail "ring binding gone"
        | Some host -> begin
            Alcotest.(check int) "all served" batch (Ring.served host);
            Alcotest.(check bool) "coalesced: fewer notifications than requests"
              true
              (Ring.notifications host < batch)
          end);
        check_audit_clean monitor "after real-guest exitless batch");
    Alcotest.test_case "coalescing: one notification, batched consume" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        for i = 0 to 3 do
          fill_slot machine h ~slot:(15 + i) ~byte:'c' ~len:32;
          match
            Ring.submit g ~op:Sw.op_blk_write ~len:32
              ~data_gpa:(Sw.slot_gpa (15 + i))
              ~meta:(Int64.of_int (40 + i))
              ()
          with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        done;
        Alcotest.(check int) "batch serviced" 4 (Kvm.service_exitless kvm h);
        (match Kvm.exitless_host kvm h with
        | Some host ->
            Alcotest.(check int) "single notification" 1
              (Ring.notifications host)
        | None -> Alcotest.fail "binding gone");
        let n, v = Kvm.exitless_poll kvm h in
        Alcotest.(check int) "batch consumed" 4 n;
        Alcotest.(check string) "verdict" "ok" (Ring.verdict_to_string v);
        Alcotest.(check int) "coalesced counter" 3
          (counter monitor h "sm.io.completions_coalesced");
        check_audit_clean monitor "after coalesced batch")
  ]

(* ---------- poison-at-every-field sweep ---------- *)

(* One poison case: a host-writable field (byte offset + width) and a
   hostile value, applied at a given protocol point. *)
type poison_point = Before_service | After_service

let secure_pa_of mon =
  match Zion.Secmem.regions (Zion.Monitor.secmem mon) with
  | (base, _) :: _ -> base
  | [] -> Alcotest.fail "no secure region"

let poison_cases mon =
  let d off = Sw.ring_desc_off 0 + off in
  [
    ("desc.gpa zero", d 0, 8, 0L, Before_service);
    ("desc.gpa wild", d 0, 8, 0xDEAD_BEEF_0000L, Before_service);
    ("desc.gpa secure-pool", d 0, 8, secure_pa_of mon, Before_service);
    ("desc.len overflow", d 8, 4, Int64.of_int (Sw.slot_size * 8), Before_service);
    ("desc.len max", d 8, 4, 0xFFFF_FFFFL, Before_service);
    ("desc.op flip", d 12, 4, Int64.of_int Sw.op_blk_read, Before_service);
    ("desc.op wild", d 12, 4, 0x77L, Before_service);
    ("desc.meta redirect", d 16, 8, 0x1_0000L, Before_service);
    (* sector = 2^53: sector * 512 wraps native int if multiplied
       naively — the device must reject without overflow. *)
    ("desc.meta huge sector", d 16, 8, 0x20_0000_0000_0000L, Before_service);
    ("desc.meta max sector", d 16, 8, Int64.max_int, Before_service);
    ("avail.idx runaway", Sw.ring_avail_idx_off, 4, 0x7F01L, Before_service);
    ("avail.entry wild", Sw.ring_avail_entry_off 0, 4, 0xFFL, Before_service);
    ("used.idx rewind", Sw.ring_used_idx_off, 4, 0xFFFFL, After_service);
    ("used.idx runaway", Sw.ring_used_idx_off, 4, 0x1234L, After_service);
    ("used.entry.id bad", Sw.ring_used_entry_off 0, 4, 0xFFFF_FFFFL, After_service);
    ("used.entry.id stale replay", Sw.ring_used_entry_off 0, 4, 9L,
     After_service);
    ("used.entry.len overflow", Sw.ring_used_entry_off 0 + 4, 4, 0x10000L,
     After_service);
  ]

(* Run one poison case end to end and assert the contract: never a
   panic or hang, the watchdog/strike machinery lands in exitful
   fallback (or consumes an honestly-detectable no-op), the audit is
   clean, the ring mapping is gone, and the CVM still runs — and can
   still do I/O — over the exitful MMIO path. *)
let run_poison_case (name, off, width, value, point) =
  let machine, monitor, kvm = make_stack () in
  (* The guest program is the *exitful* fallback proof: a plain MMIO
     blk write it executes after the ring has degraded. *)
  let prog =
    Guest.Gprog.blk_write ~sector:3 ~len:128 ~byte:'F' @ Guest.Gprog.shutdown
  in
  let h = make_guest kvm prog in
  let g = enable kvm h in
  fill_slot machine h ~slot:10 ~byte:'p' ~len:256;
  (match
     Ring.submit g ~op:Sw.op_blk_write ~len:256 ~data_gpa:(Sw.slot_gpa 10)
       ~meta:50L ()
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  (match point with
  | Before_service ->
      ring_poke kvm h ~off ~width value;
      ignore (Kvm.service_exitless kvm h : int)
  | After_service ->
      ignore (Kvm.service_exitless kvm h : int);
      ring_poke kvm h ~off ~width value);
  (* Poll to the watchdog bound: every iteration must return without
     raising; the loop must terminate in fallback or a clean drain. *)
  let polls = ref 0 in
  (try
     while Kvm.exitless_active kvm h && !polls <= Ring.watchdog_polls + 4 do
       incr polls;
       ignore (Kvm.exitless_poll kvm h : int * Ring.verdict);
       if Kvm.exitless_active kvm h && !polls mod 8 = 0 then
         ignore (Kvm.service_exitless kvm h : int)
     done
   with e ->
     Alcotest.fail
       (Printf.sprintf "%s: exception escaped the consume path: %s" name
          (Printexc.to_string e)));
  (* Force the degradation decision for poisons an honest service
     absorbed (e.g. the host re-published a valid used index): the
     watchdog teardown must behave identically. *)
  if Kvm.exitless_active kvm h then Kvm.disable_exitless_io kvm h;
  Alcotest.(check bool)
    (name ^ ": device association quarantined")
    false (Kvm.exitless_active kvm h);
  Alcotest.(check bool)
    (name ^ ": no leaked ring mapping")
    true
    (Hypervisor.Shared_map.lookup (Kvm.cvm_shared_map h) ~gpa:Sw.ring_gpa
    = None);
  Alcotest.(check int)
    (name ^ ": no in-flight bounce slots leaked")
    0
    (match Kvm.exitless_guest kvm h with
    | Some g -> Sw.in_use (Ring.guest_pool g)
    | None -> Sw.in_use (Ring.guest_pool g));
  check_audit_clean monitor (name ^ ": after fallback");
  (* The CVM is still runnable and I/O still works — exitfully. *)
  (match
     Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:500_000 ~max_slices:100
   with
  | Kvm.C_shutdown -> ()
  | _ -> Alcotest.fail (name ^ ": CVM no longer runnable after fallback"));
  Alcotest.(check string)
    (name ^ ": exitful kick still works")
    "0"
    (Machine.console_output machine);
  let blk = Hypervisor.Mmio_emul.blk (Kvm.devices kvm) in
  Alcotest.(check string)
    (name ^ ": exitful write landed")
    (String.make 8 'F')
    (Hypervisor.Virtio_blk.read_backing blk ~sector:3 ~len:8);
  check_audit_clean monitor (name ^ ": after exitful fallback run")

let poison_tests =
  [
    Alcotest.test_case "poison-at-every-field sweep degrades cleanly" `Quick
      (fun () ->
        (* Enumerate cases against a throwaway stack (for the secure
           PA), then run each against a fresh stack. *)
        let _, mon0, _ = make_stack () in
        List.iter run_poison_case (poison_cases mon0));
    Alcotest.test_case "strike budget is bounded and counted" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        fill_slot machine h ~slot:10 ~byte:'s' ~len:64;
        (match
           Ring.submit g ~op:Sw.op_blk_write ~len:64
             ~data_gpa:(Sw.slot_gpa 10) ~meta:60L ()
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        ignore (Kvm.service_exitless kvm h : int);
        (* permanently rewound used index *)
        ring_poke kvm h ~off:Sw.ring_used_idx_off ~width:4 0xFFF0L;
        let fell_at = ref 0 in
        for i = 1 to Ring.max_strikes + 2 do
          if Kvm.exitless_active kvm h then begin
            ignore (Kvm.exitless_poll kvm h : int * Ring.verdict);
            if (not (Kvm.exitless_active kvm h)) && !fell_at = 0 then
              fell_at := i
          end
        done;
        Alcotest.(check int) "fell back exactly at the strike budget"
          Ring.max_strikes !fell_at;
        Alcotest.(check int) "cal_rejections counted" Ring.max_strikes
          (counter monitor h "sm.io.cal_rejections");
        Alcotest.(check int) "one fallback" 1
          (counter monitor h "sm.io.fallbacks");
        check_audit_clean monitor "after strike-out");
    Alcotest.test_case
      "duplicate live used id within one batch strikes replay" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        fill_slot machine h ~slot:10 ~byte:'d' ~len:64;
        fill_slot machine h ~slot:11 ~byte:'e' ~len:64;
        let submit slot meta =
          match
            Ring.submit g ~op:Sw.op_blk_write ~len:64
              ~data_gpa:(Sw.slot_gpa slot) ~meta ()
          with
          | Ok id -> id
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        in
        let id0 = submit 10 80L in
        ignore (submit 11 81L : int);
        Alcotest.(check int) "both serviced" 2 (Kvm.service_exitless kvm h);
        (* The host published [id0; id1] under one used_idx += 2 bump.
           Forge the second entry into a duplicate of the first — an id
           that is still live, so the per-entry shadow lookup alone
           cannot see the replay. *)
        ring_poke kvm h
          ~off:(Sw.ring_used_entry_off 1)
          ~width:4 (Int64.of_int id0);
        let n, v = Kvm.exitless_poll kvm h in
        Alcotest.(check int) "nothing consumed" 0 n;
        Alcotest.(check string) "verdict" "replay" (Ring.verdict_to_string v);
        (match Kvm.exitless_guest kvm h with
        | Some g ->
            Alcotest.(check int) "both requests still outstanding" 2
              (Ring.outstanding g)
        | None -> Alcotest.fail "fell back after a single strike");
        (* The poison persists, so the strike budget must degrade the
           ring cleanly rather than hang or double-complete. *)
        for _ = 1 to Ring.max_strikes do
          if Kvm.exitless_active kvm h then
            ignore (Kvm.exitless_poll kvm h : int * Ring.verdict)
        done;
        Alcotest.(check bool) "fell back" false (Kvm.exitless_active kvm h);
        Alcotest.(check int) "bounce slots released" 0
          (Sw.in_use (Ring.guest_pool g));
        check_audit_clean monitor "after duplicate-id replay");
    Alcotest.test_case "stall watchdog degrades a silent host" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        fill_slot machine h ~slot:10 ~byte:'w' ~len:64;
        (match
           Ring.submit g ~op:Sw.op_blk_write ~len:64
             ~data_gpa:(Sw.slot_gpa 10) ~meta:61L ()
         with
        | Ok _ -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        (* the host never services; the guest polls into the watchdog *)
        let last = ref Ring.V_ok in
        for _ = 1 to Ring.watchdog_polls + 2 do
          if Kvm.exitless_active kvm h then begin
            let _, v = Kvm.exitless_poll kvm h in
            if v <> Ring.V_ok then last := v
          end
        done;
        Alcotest.(check string) "stall verdict" "stall"
          (Ring.verdict_to_string !last);
        Alcotest.(check bool) "fell back" false (Kvm.exitless_active kvm h);
        Alcotest.(check int) "bounce slots released" 0
          (Sw.in_use (Ring.guest_pool g));
        check_audit_clean monitor "after stall watchdog")
  ]

(* ---------- bounce-slot hygiene + audit section ---------- *)

let hygiene_tests =
  [
    Alcotest.test_case "double release is a typed Bad_state" `Quick
      (fun () ->
        let p = Sw.create_pool () in
        let s =
          match Sw.acquire p with
          | Ok s -> s
          | Error _ -> Alcotest.fail "acquire failed"
        in
        Alcotest.(check bool) "busy" true (Sw.is_busy p s);
        (match Sw.release p s with
        | Ok () -> ()
        | Error _ -> Alcotest.fail "first release must succeed");
        (match Sw.release p s with
        | Error Zion.Ecall.Bad_state -> ()
        | Ok () -> Alcotest.fail "double release silently accepted"
        | Error e ->
            Alcotest.fail ("wrong error: " ^ Zion.Ecall.error_to_string e));
        (match Sw.release p (-1) with
        | Error Zion.Ecall.Invalid_param -> ()
        | _ -> Alcotest.fail "out-of-range release not rejected");
        Alcotest.(check int) "nothing live" 0 (Sw.in_use p));
    Alcotest.test_case "pool exhaustion is a typed No_memory" `Quick
      (fun () ->
        let p = Sw.create_pool () in
        for _ = 1 to Sw.slots do
          match Sw.acquire p with
          | Ok _ -> ()
          | Error _ -> Alcotest.fail "premature exhaustion"
        done;
        match Sw.acquire p with
        | Error Zion.Ecall.No_memory -> ()
        | Ok _ -> Alcotest.fail "65th slot appeared"
        | Error e -> Alcotest.fail ("wrong error: " ^ Zion.Ecall.error_to_string e));
    Alcotest.test_case "audit flags a bounce slot aliasing a private page"
      `Quick (fun () ->
        let _, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        check_audit_clean monitor "baseline";
        let victim = secure_pa_of monitor in
        Hypervisor.Shared_map.map_secure_page_for_attack
          (Kvm.cvm_shared_map h) ~gpa:(Sw.slot_gpa 5) ~pa:victim;
        (match Zion.Monitor.audit monitor with
        | Ok _ -> Alcotest.fail "audit missed the aliased bounce slot"
        | Error findings ->
            Alcotest.(check bool)
              "swiotlb section names the alias" true
              (List.exists
                 (fun f ->
                   let has sub s =
                     let n = String.length sub and m = String.length s in
                     let rec go i =
                       i + n <= m && (String.sub s i n = sub || go (i + 1))
                     in
                     go 0
                   in
                   has "bounce page" f)
                 findings)))
  ]

(* ---------- packaged ring attacks ---------- *)

let check_blocked name outcome =
  match outcome with
  | Platform.Attacks.Blocked _ -> ()
  | Platform.Attacks.Leaked m -> Alcotest.fail (name ^ " leaked: " ^ m)

let attack_tests =
  [
    Alcotest.test_case "ring-poison attack vectors are all blocked" `Quick
      (fun () ->
        let rows = Platform.Attacks.suite [ Ring ] in
        Alcotest.(check int) "six vectors" 6 (List.length rows);
        List.iter (fun (name, outcome) -> check_blocked name outcome) rows);
    Alcotest.test_case "the host reaches the ring page only as IOPMP-checked DMA"
      `Quick (fun () ->
        let machine, monitor, kvm = make_stack () in
        let bus = machine.Machine.bus in
        let shared h = Kvm.cvm_shared_map h in
        let alias h pa =
          Hypervisor.Shared_map.map_secure_page_for_attack (shared h)
            ~gpa:Sw.ring_gpa ~pa
        in
        let page pa = Bus.read_bytes bus pa 4096 in
        (* An enable over a secure page writes nothing and binds no
           ring. *)
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let h2 = make_guest kvm (Guest.Gprog.hello "y") in
        let victim = secure_pa_of monitor in
        let before = page victim in
        alias h victim;
        (match Kvm.enable_exitless_io kvm h with
        | Ok _ -> Alcotest.fail "enabled over a secure page"
        | Error _ -> ());
        Alcotest.(check bool) "no ring bound" false (Kvm.exitless_active kvm h);
        Alcotest.(check bool) "victim untouched by enable" true
          (page victim = before);
        (* Control: the same plumbing aimed at normal memory takes
           effect. *)
        let normal =
          match
            Hypervisor.Shared_map.lookup (shared h2) ~gpa:(Sw.slot_gpa 5)
          with
          | Some pa -> pa
          | None -> Alcotest.fail "bounce slot unmapped"
        in
        Bus.write_bytes bus normal (String.make 4096 'X');
        alias h2 normal;
        ignore (enable kvm h2 : Ring.guest);
        Alcotest.(check bool) "normal page scrubbed" true
          (page normal = String.make 4096 '\000');
        (* A live ring re-aimed at the secure page: the host's pokes and
           its polling are refused, and each refused poll is a host
           reject. *)
        alias h2 victim;
        Alcotest.(check bool) "poke refused" false
          (Ring.poke ~bus
             ~translate:(fun gpa ->
               Hypervisor.Shared_map.lookup (shared h2) ~gpa)
             ~off:Sw.ring_avail_idx_off ~width:4 1L);
        ignore (Kvm.service_exitless kvm h2 : int);
        Alcotest.(check int) "host reject counted" 1
          (match Kvm.exitless_host kvm h2 with
          | Some host -> Ring.host_rejects host
          | None -> -1);
        Alcotest.(check bool) "victim untouched" true (page victim = before));
    Alcotest.test_case
      "disabling a live ring re-aimed at secure memory leaves it intact"
      `Quick (fun () ->
        let machine, monitor, kvm = make_stack () in
        let bus = machine.Machine.bus in
        let page pa = Bus.read_bytes bus pa 4096 in
        let ring_pa h =
          Hypervisor.Shared_map.lookup (Kvm.cvm_shared_map h) ~gpa:Sw.ring_gpa
        in
        let a = make_guest kvm (Guest.Gprog.hello "a") in
        let b = make_guest kvm (Guest.Gprog.hello "b") in
        (* A free pool block no guest owns yet, holding a marker. *)
        let victim =
          match
            List.rev (Zion.Secmem.free_list_bases (Zion.Monitor.secmem monitor))
          with
          | base :: _ -> base
          | [] -> Alcotest.fail "no free secure block"
        in
        let marker = String.make 4096 'M' in
        Bus.write_bytes bus victim marker;
        (* CVM A's ring is live on a normal page; the host re-aims the
           leaf at the secure page, then disables exitless I/O. *)
        let ga = enable kvm a in
        Hypervisor.Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map a)
          ~gpa:Sw.ring_gpa ~pa:victim;
        Kvm.disable_exitless_io kvm a;
        Alcotest.(check bool) "marker intact" true (page victim = marker);
        Alcotest.(check bool) "fell back" true
          (Ring.guest_mode ga = Ring.Fallen_back);
        Alcotest.(check bool) "alias unmapped" true (ring_pa a = None);
        (* Control: without the alias the ring still falls back and its
           page leaves the shared subtree. *)
        let gb = enable kvm b in
        Kvm.disable_exitless_io kvm b;
        Alcotest.(check bool) "control fell back" true
          (Ring.guest_mode gb = Ring.Fallen_back);
        Alcotest.(check bool) "control unmapped" true (ring_pa b = None);
        Alcotest.(check bool) "no ring bound" false
          (Kvm.exitless_active kvm a || Kvm.exitless_active kvm b);
        check_audit_clean monitor "after both disables");
    Alcotest.test_case
      "the guest view refuses a live ring re-aimed at secure memory" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let bus = machine.Machine.bus in
        let page pa = Bus.read_bytes bus pa 4096 in
        let shared h = Kvm.cvm_shared_map h in
        let submit g =
          Ring.submit g ~op:Sw.op_blk_write ~len:64 ~data_gpa:(Sw.slot_gpa 10)
            ~meta:1L ()
        in
        let a = make_guest kvm (Guest.Gprog.hello "a") in
        let b = make_guest kvm (Guest.Gprog.hello "b") in
        (* A free pool block no guest owns yet, holding a marker. *)
        let victim =
          match
            List.rev (Zion.Secmem.free_list_bases (Zion.Monitor.secmem monitor))
          with
          | base :: _ -> base
          | [] -> Alcotest.fail "no free secure block"
        in
        let marker = String.make 4096 'M' in
        Bus.write_bytes bus victim marker;
        (* CVM A's ring is live; the host re-aims its leaf at the secure
           page. The guest's next submit and consume must not touch it. *)
        let ga = enable kvm a in
        Hypervisor.Shared_map.map_secure_page_for_attack (shared a)
          ~gpa:Sw.ring_gpa ~pa:victim;
        (match submit ga with
        | Ok _ -> Alcotest.fail "submitted into secure memory"
        | Error _ -> ());
        Alcotest.(check string) "consume stalls" "stall"
          (Ring.verdict_to_string (snd (Ring.consume ga)));
        Alcotest.(check bool) "fell back" true
          (Ring.guest_mode ga = Ring.Fallen_back);
        Alcotest.(check bool) "marker intact" true (page victim = marker);
        (* Control: the same re-aim at a normal page still submits, and
           the descriptor lands there. *)
        let gb = enable kvm b in
        let normal =
          match
            Hypervisor.Shared_map.lookup (shared b) ~gpa:(Sw.slot_gpa 5)
          with
          | Some pa -> pa
          | None -> Alcotest.fail "bounce slot unmapped"
        in
        Hypervisor.Shared_map.map_secure_page_for_attack (shared b)
          ~gpa:Sw.ring_gpa ~pa:normal;
        match submit gb with
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        | Ok id ->
            Alcotest.(check int64) "descriptor on the normal page"
              (Sw.slot_gpa 10)
              (Bus.read bus
                 (Int64.add normal (Int64.of_int (Sw.ring_desc_off id)))
                 8);
            Alcotest.(check bool) "still exitless" true
              (Ring.guest_mode gb = Ring.Exitless));
  ]

(* ---------- health / counters surfacing ---------- *)

let health_tests =
  [
    Alcotest.test_case "sm.io.* counters surface in health_snapshot" `Quick
      (fun () ->
        let machine, monitor, kvm = make_stack () in
        let h = make_guest kvm (Guest.Gprog.hello "x") in
        let g = enable kvm h in
        fill_slot machine h ~slot:10 ~byte:'h' ~len:64;
        for i = 0 to 2 do
          match
            Ring.submit g ~op:Sw.op_blk_write ~len:64
              ~data_gpa:(Sw.slot_gpa 10)
              ~meta:(Int64.of_int (70 + i))
              ()
          with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        done;
        ignore (Kvm.service_exitless kvm h : int);
        ignore (Kvm.exitless_poll kvm h : int * Ring.verdict);
        Kvm.disable_exitless_io kvm h;
        let health = Zion.Monitor.health_snapshot monitor in
        match
          List.find_opt
            (fun th -> th.Zion.Monitor.th_cvm = Kvm.cvm_id h)
            health.Zion.Monitor.h_cvms
        with
        | None -> Alcotest.fail "tenant missing from health"
        | Some th -> begin
            Alcotest.(check int) "kicks suppressed" 3
              th.Zion.Monitor.th_io_kicks_suppressed;
            Alcotest.(check int) "coalesced" 2 th.Zion.Monitor.th_io_coalesced;
            Alcotest.(check int) "cal rejections" 0
              th.Zion.Monitor.th_io_cal_rejections;
            Alcotest.(check int) "fallbacks" 1
              th.Zion.Monitor.th_io_fallbacks
          end)
  ]

let suite =
  [
    ("exitless:happy", happy_tests);
    ("exitless:poison", poison_tests);
    ("exitless:hygiene", hygiene_tests);
    ("exitless:attacks", attack_tests);
    ("exitless:health", health_tests);
  ]
