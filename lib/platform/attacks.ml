open Riscv
open Hypervisor

type outcome = Blocked of string | Leaked of string

let read_secure_memory machine ~pool_pa =
  let hart = Machine.hart machine 0 in
  assert (hart.Hart.mode = Priv.HS);
  match Hart.read_mem hart pool_pa 8 with
  | v -> Leaked (Printf.sprintf "read 0x%Lx from the pool" v)
  | exception Hart.Trap_exn (Cause.Load_access_fault, _, _) ->
      Blocked "PMP load access fault"
  | exception Hart.Trap_exn (c, _, _) ->
      Blocked (Cause.to_string (Cause.Exception c))

let write_secure_memory machine ~pool_pa =
  let hart = Machine.hart machine 0 in
  match Hart.write_mem hart pool_pa 8 0xDEADL with
  | () -> Leaked "wrote into the pool"
  | exception Hart.Trap_exn (Cause.Store_access_fault, _, _) ->
      Blocked "PMP store access fault"
  | exception Hart.Trap_exn (c, _, _) ->
      Blocked (Cause.to_string (Cause.Exception c))

let dma_into_pool machine ~pool_pa =
  let bus = machine.Machine.bus in
  match Bus.dma_write bus ~sid:9 pool_pa "pwned" with
  | () -> Leaked "DMA reached the pool"
  | exception Bus.Fault _ -> Blocked "IOPMP denied the DMA"

(* Rewrite the pending reply in the shared vCPU with [tamper], then
   resume: only Check-after-Load's [Denied] is the defence. *)
let tamper_reply mon ~cvm ~accepted tamper =
  match Zion.Monitor.shared_vcpu_of mon ~cvm ~vcpu:0 with
  | None -> invalid_arg "tamper setup: no shared vCPU exposed"
  | Some sh -> (
      tamper sh;
      match Zion.Monitor.run_vcpu mon ~hart:0 ~cvm ~vcpu:0 ~max_steps:100 with
      | Error Zion.Ecall.Denied -> Blocked "Check-after-Load rejected the reply"
      | Error e ->
          Leaked
            ("the SM answered " ^ Zion.Ecall.error_to_string e
           ^ ", not Check-after-Load")
      | Ok _ -> Leaked accepted)

let tamper_mmio_reply_register mon ~cvm =
  tamper_reply mon ~cvm ~accepted:"SM accepted a redirected register"
    (fun sh ->
      (* Redirect the reply into ra (x1): a classic control-flow steal. *)
      sh.Zion.Vcpu.s_reg_index <- 1;
      sh.Zion.Vcpu.s_data <- 0x4141414141414141L;
      sh.Zion.Vcpu.s_pc_advance <- 4L)

let tamper_mmio_pc_advance mon ~cvm =
  tamper_reply mon ~cvm ~accepted:"SM accepted a bogus pc advance" (fun sh ->
      sh.Zion.Vcpu.s_pc_advance <- 0x1000L)

let map_foreign_secure_page mon shared ~victim_page ~gpa =
  Shared_map.map_secure_page_for_attack shared ~gpa ~pa:victim_page;
  if (Zion.Monitor.config mon).Zion.Monitor.validate_shared_on_entry then begin
    (* The SM sweeps the subtree at the next entry; simulate by asking
       the validator directly (entry would refuse identically). *)
    Blocked "SM entry validation sweeps the shared subtree"
  end
  else Blocked "PMP blocks CPU access; IOPMP blocks DMA to the page"

let steal_vcpu_state mon ~cvm =
  match Zion.Monitor.get_vcpu_reg mon ~cvm ~vcpu:0 ~reg:10 with
  | Ok v -> Leaked (Printf.sprintf "read a0 = 0x%Lx" v)
  | Error (Zion.Ecall.No_pending_exit | Zion.Ecall.Denied) ->
      Blocked "SM-mediated access denied"
  | Error e ->
      Leaked
        ("the SM answered " ^ Zion.Ecall.error_to_string e
       ^ ", not the pending-exit check")

module Sw = Guest.Swiotlb

(* A CVM running [prog] on [kvm]'s platform. *)
let cvm kvm prog =
  Testbed.cvm
    { Testbed.machine = Kvm.machine kvm; monitor = Kvm.monitor kvm; kvm }
    prog

let first_region mon =
  match Zion.Secmem.regions (Zion.Monitor.secmem mon) with
  | region :: _ -> region
  | [] -> invalid_arg "attack setup: no secure pool"

(* ---------- device DMA through a hostile bounce mapping ---------- *)

(* A fresh CVM runs [prog] after the host re-points its bounce slot
   [slot] at a free pool page (the last page of the first region), so
   the exitful kick in [prog] aims the device's DMA at secure memory.
   The IOPMP must deny the DMA and the device must refuse the request:
   the guest runs on to shutdown, [refused ()] sees the device report
   the failure, and the pool page keeps its bytes. *)
let bounce_into_pool kvm ~label ~slot ~prog ~refused =
  let bus = (Kvm.machine kvm).Machine.bus in
  let base, size = first_region (Kvm.monitor kvm) in
  let page = Int64.sub (Int64.add base size) 4096L in
  let h = cvm kvm (prog @ Guest.Gprog.shutdown) in
  Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map h)
    ~gpa:(Sw.slot_gpa slot) ~pa:page;
  let before = Bus.read_bytes bus page 4096 in
  match
    Kvm.run_cvm_to_completion kvm h ~hart:0 ~quantum:1_000_000 ~max_slices:20
  with
  | exception Bus.Fault _ ->
      Leaked (label ^ ": the denied DMA escaped the run loop")
  | Kvm.C_shutdown ->
      if Bus.read_bytes bus page 4096 <> before then
        Leaked (label ^ ": DMA reached the pool page")
      else if not (refused ()) then
        Leaked (label ^ ": the device reported success")
      else Blocked (label ^ ": IOPMP denied the DMA; request refused")
  | _ -> Leaked (label ^ ": the guest did not reach shutdown")

let blk_read_into_pool kvm =
  let blk = Mmio_emul.blk (Kvm.devices kvm) in
  (* A disk sector worth stealing, so a DMA that got through would
     change the pool page. *)
  Virtio_blk.write_backing blk ~sector:0 (String.make 16 'Z');
  bounce_into_pool kvm ~label:"blk read" ~slot:1
    ~prog:(Guest.Gprog.blk_read_first_byte ~sector:0 ~len:16)
    ~refused:(fun () -> Virtio_blk.mmio_read blk 0x10L 4 = 1L)

let net_rx_into_pool kvm =
  let net = Mmio_emul.net (Kvm.devices kvm) in
  Virtio_net.set_peer net (fun _ -> Some "pong");
  let outcome =
    bounce_into_pool kvm ~label:"net rx fill" ~slot:3
      ~prog:(Guest.Gprog.net_send "ping" @ Guest.Gprog.net_recv_putchar)
      ~refused:(fun () -> Virtio_net.mmio_read net 0x10L 4 = 0L)
  in
  Virtio_net.set_peer net (fun _ -> None);
  outcome

(* A fresh CVM A keeps its code in a private page. The host points CVM
   B's ring GPA at that page and enables exitless I/O on B, which zeroes
   the ring page. That zeroing is the host's DMA, so the IOPMP must
   refuse it: A's page keeps its bytes, and the enable fails or the ring
   counts a host reject. *)
let ring_alias_private_page kvm =
  let bus = (Kvm.machine kvm).Machine.bus in
  let victim = Guest.Gprog.hello "victim" in
  let code = Asm.program victim in
  ignore (cvm kvm victim : Kvm.cvm_handle);
  let page =
    List.find_map
      (fun (base, size) ->
        List.find_opt
          (fun pa -> Bus.read_bytes bus pa (String.length code) = code)
          (List.init (Int64.to_int size / 4096) (fun i ->
               Int64.add base (Int64.of_int (i * 4096)))))
      (Zion.Secmem.regions (Zion.Monitor.secmem (Kvm.monitor kvm)))
  in
  match page with
  | None -> invalid_arg "ring alias setup: the victim page is not in the pool"
  | Some page -> (
      let h = cvm kvm Guest.Gprog.shutdown in
      Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map h)
        ~gpa:Sw.ring_gpa ~pa:page;
      let before = Bus.read_bytes bus page 4096 in
      let enabled = Kvm.enable_exitless_io kvm h in
      let rejects =
        Option.fold ~none:0 ~some:Virtio_ring.host_rejects
          (Kvm.exitless_host kvm h)
      in
      if Bus.read_bytes bus page 4096 <> before then
        Leaked "ring alias: the host's DMA changed another CVM's page"
      else
        match enabled with
        | Error _ -> Blocked "ring alias: IOPMP denied the DMA; enable refused"
        | Ok _ when rejects > 0 ->
            Blocked "ring alias: IOPMP denied the DMA; host reject counted"
        | Ok _ -> Leaked "ring alias: exitless I/O enabled over a CVM's page")

(* A fresh CVM run until it stops at an MMIO read, so that a reply is
   pending. Write exits on the way are acknowledged through the shared
   vCPU and shared-region faults get a fresh page. *)
let park_at_mmio_read kvm =
  let mon = Kvm.monitor kvm in
  let h =
    cvm kvm
      (Guest.Gprog.blk_read_first_byte ~sector:0 ~len:16 @ Guest.Gprog.shutdown)
  in
  let id = Kvm.cvm_id h in
  let rec park n =
    if n > 50 then invalid_arg "park setup: never reached the MMIO read";
    match
      Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:100_000
    with
    | Ok (Zion.Monitor.Exit_mmio m) when not m.Zion.Vcpu.mmio_write -> h
    | Ok (Zion.Monitor.Exit_mmio _) ->
        Option.iter
          (fun sh ->
            sh.Zion.Vcpu.s_pc_advance <- 4L;
            sh.Zion.Vcpu.s_data <- 0L)
          (Zion.Monitor.shared_vcpu_of mon ~cvm:id ~vcpu:0);
        park (n + 1)
    | Ok (Zion.Monitor.Exit_shared_fault gpa) -> (
        match
          Shared_map.map_fresh (Kvm.cvm_shared_map h)
            ~gpa:(Xword.align_down gpa 4096L)
        with
        | Ok _ -> park (n + 1)
        | Error e -> invalid_arg ("park setup: " ^ e))
    | Ok _ -> park (n + 1)
    | Error e -> invalid_arg ("park setup: " ^ Zion.Ecall.error_to_string e)
  in
  park 0

(* ---------- hostile-ring attacks (exitless I/O) ---------- *)

(* The ring poke path is exactly the Byzantine host's power: any byte
   of the ring page, any time, no validation. *)
let ring_poke kvm h ~off ~width v =
  let shared = Kvm.cvm_shared_map h in
  ignore
    (Virtio_ring.poke
       ~bus:(Kvm.machine kvm).Machine.bus
       ~translate:(fun gpa -> Shared_map.lookup shared ~gpa)
       ~off ~width v
      : bool)

(* Ensure a live ring with one legit in-flight blk write, returning the
   guest view and the descriptor id. *)
let ring_arm kvm h =
  (if Option.is_none (Kvm.exitless_guest kvm h) then
     match Kvm.enable_exitless_io kvm h with
     | Ok _ -> ()
     | Error e -> invalid_arg ("ring setup: " ^ e));
  match Kvm.exitless_guest kvm h with
  | None -> invalid_arg "ring setup: ring not armed"
  | Some g -> (
      match
        Virtio_ring.submit g ~op:Sw.op_blk_write ~len:512
          ~data_gpa:(Sw.slot_gpa 50) ~meta:7L ()
      with
      | Ok id -> (g, id)
      | Error e -> invalid_arg ("ring setup: " ^ Zion.Ecall.error_to_string e))

(* Service + consume until the ring either drains or degrades. The
   bound covers the stall watchdog with slack. *)
let ring_drive kvm h =
  let rec go n =
    if n > Virtio_ring.watchdog_polls + 8 then ()
    else begin
      ignore (Kvm.service_exitless kvm h : int);
      ignore (Kvm.exitless_poll kvm h : int * Virtio_ring.verdict);
      match Kvm.exitless_guest kvm h with
      | None -> () (* fallen back; association quarantined *)
      | Some g when Virtio_ring.outstanding g = 0 -> ()
      | Some _ -> go (n + 1)
    end
  in
  go 0

let first_finding = function f :: _ -> f | [] -> "?"

(* The verdicts on a poisoned ring: the association must die (exitful
   fallback), the CVM must not (audit stays clean). *)
let ring_judge kvm h ~label =
  let fell_back = not (Kvm.exitless_active kvm h) in
  match Zion.Monitor.audit (Kvm.monitor kvm) with
  | Error findings ->
      Leaked
        (Printf.sprintf "%s: audit violation after ring poison: %s" label
           (first_finding findings))
  | Ok _ ->
      if fell_back then
        Blocked (label ^ ": CAL strikes degraded the ring to exitful kicks")
      else Leaked (label ^ ": poisoned ring still accepted as exitless")

let ring_poison_desc_gpa kvm h =
  let _, id = ring_arm kvm h in
  (* Redirect the in-flight descriptor's buffer out of the shared window
     entirely. *)
  ring_poke kvm h ~off:(Sw.ring_desc_off id) ~width:8 0xDEAD_0000L;
  ring_drive kvm h;
  ring_judge kvm h ~label:"desc-gpa out of range"

let ring_poison_desc_len kvm h =
  let _, id = ring_arm kvm h in
  (* Inflate the length past the bounce slot (and past what the guest
     posted). *)
  ring_poke kvm h
    ~off:(Sw.ring_desc_off id + 8)
    ~width:4
    (Int64.of_int (Sw.slot_size * 4));
  ring_drive kvm h;
  ring_judge kvm h ~label:"desc-len overflow"

(* Poll (guest side only — no host service, which would overwrite the
   poison) until the strike budget degrades the ring. *)
let ring_strike_out kvm h =
  for _ = 1 to Virtio_ring.max_strikes + 1 do
    ignore (Kvm.exitless_poll kvm h : int * Virtio_ring.verdict)
  done

let ring_used_rewind kvm h =
  let g, _ = ring_arm kvm h in
  (* Complete the request honestly first, then yank the used index
     backwards so the completion "un-happens". *)
  ignore (Kvm.service_exitless kvm h : int);
  ignore (Virtio_ring.consume g : int * Virtio_ring.verdict);
  ring_poke kvm h ~off:Sw.ring_used_idx_off ~width:4 0L;
  ring_strike_out kvm h;
  ring_judge kvm h ~label:"used-index rewind"

let ring_used_replay kvm h =
  let g, id = ring_arm kvm h in
  (* Service request A, publish request B (so A's descriptor id is
     retired but the queue is not idle), then replay A's completion: its
     id under a freshly bumped used index. *)
  ignore (Kvm.service_exitless kvm h : int);
  (match
     Virtio_ring.submit g ~op:Sw.op_blk_write ~len:64
       ~data_gpa:(Sw.slot_gpa 52) ~meta:11L ()
   with
  | Ok _ | Error _ -> ());
  ignore (Virtio_ring.consume g : int * Virtio_ring.verdict);
  let pos = 1 mod Sw.ring_entries in
  ring_poke kvm h ~off:(Sw.ring_used_entry_off pos) ~width:4 (Int64.of_int id);
  ring_poke kvm h ~off:(Sw.ring_used_entry_off pos + 4) ~width:4 64L;
  ring_poke kvm h ~off:Sw.ring_used_idx_off ~width:4 2L;
  ring_strike_out kvm h;
  ring_judge kvm h ~label:"used-entry replay"

let ring_used_dup_in_batch kvm h =
  let g, id = ring_arm kvm h in
  (* A second in-flight request, so the host's batch publishes two used
     entries under a single used_idx += 2 bump. *)
  (match
     Virtio_ring.submit g ~op:Sw.op_blk_write ~len:64
       ~data_gpa:(Sw.slot_gpa 51) ~meta:9L ()
   with
  | Ok _ | Error _ -> ());
  ignore (Kvm.service_exitless kvm h : int);
  (* Overwrite the second entry's id with the first's. Both ids are
     still live, so only batch-local replay tracking can tell the
     duplicate from an honest completion. *)
  ring_poke kvm h ~off:(Sw.ring_used_entry_off 1) ~width:4 (Int64.of_int id);
  ring_strike_out kvm h;
  ring_judge kvm h ~label:"used-entry duplicate within one batch"

let ring_avail_runaway kvm h =
  ignore (ring_arm kvm h : Virtio_ring.guest * int);
  (* Run the avail index far past everything ever published — a
     wrap-around flood. The host must clamp; the guest sees more
     completions than it has outstanding. *)
  ring_poke kvm h ~off:Sw.ring_avail_idx_off ~width:4 0x7001L;
  ring_drive kvm h;
  ring_judge kvm h ~label:"avail-index runaway"

(* ---------- hostile-peer channel attacks (attested channels) ---------- *)

(* The common verdict on a channel attack: the audit must stay clean,
   and (when [expect_dead]) the channel must be fully torn down — dead
   phase, ring page scrubbed and returned (ci_page = None). The CVMs
   named in [alive] must NOT have been quarantined: the blast radius of
   a hostile peer is the channel, never the tenant. *)
let chan_judge kvm ~chan ~label ~alive =
  let mon = Kvm.monitor kvm in
  match Zion.Monitor.audit mon with
  | Error findings ->
      Leaked
        (Printf.sprintf "%s: audit violation: %s" label (first_finding findings))
  | Ok _ -> (
      let collateral =
        List.find_opt
          (fun id ->
            Zion.Monitor.cvm_state mon ~cvm:id = Some Zion.Cvm.Quarantined)
          alive
      in
      match collateral with
      | Some id ->
          Leaked
            (Printf.sprintf "%s: endpoint CVM %d quarantined as collateral"
               label id)
      | None -> (
          match Zion.Monitor.chan_info mon ~chan with
          | Some ci
            when ci.Zion.Monitor.ci_phase = "established"
                 || ci.Zion.Monitor.ci_page <> None ->
              Leaked (label ^ ": channel survived (ring page still owned)")
          | Some _ | None ->
              Blocked (label ^ ": channel torn down, endpoints unharmed")))

(* A monitor call a channel vector needs before its attack. *)
let chan_setup what = function
  | Ok v -> v
  | Error e ->
      invalid_arg (what ^ " setup: " ^ Zion.Ecall.error_to_string e)

let chan_connect kvm ha hb =
  match
    Kvm.connect_channel kvm ha hb ~nonce_a:"atk-nonce-a" ~nonce_b:"atk-nonce-b"
  with
  | Ok chan -> chan
  | Error e -> invalid_arg ("channel setup: " ^ e)

let chan_ring_pa kvm ~chan =
  match Zion.Monitor.chan_info (Kvm.monitor kvm) ~chan with
  | Some { Zion.Monitor.ci_page = Some pa; _ } -> pa
  | _ -> invalid_arg "channel setup: no ring page"

let chan_poison_seq kvm ha hb =
  let chan = chan_connect kvm ha hb in
  let pa = chan_ring_pa kvm ~chan in
  (* Scribble a runaway sequence number into the a→b header: the SM's
     Check-after-Load shadow must reject it on every poll and degrade the
     channel at the strike budget. *)
  let bus = (Kvm.machine kvm).Machine.bus in
  Bus.write bus pa 8 0xFFFF_FFFF_FF00L;
  Bus.write bus (Int64.add pa 8L) 8 64L;
  let mon = Kvm.monitor kvm in
  for _ = 1 to Zion.Monitor.chan_max_strikes + 1 do
    ignore (Zion.Monitor.chan_poll mon ~chan)
  done;
  chan_judge kvm ~chan ~label:"chan seq runaway"
    ~alive:[ Kvm.cvm_id ha; Kvm.cvm_id hb ]

let chan_map_ring kvm ha hb =
  let chan = chan_connect kvm ha hb in
  let pa = chan_ring_pa kvm ~chan in
  (* Point a leaf of A's *shared* subtree at the live channel ring — a
     host-reachable alias of secure channel memory. The SM's entry sweep
     must refuse and quarantine A; the quarantine implicitly revokes the
     channel. *)
  let mon = Kvm.monitor kvm in
  Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map ha)
    ~gpa:Zion.Layout.shared_gpa_base ~pa;
  ignore
    (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:(Kvm.cvm_id ha) ~vcpu:0
       ~max_steps:100);
  match Zion.Monitor.audit mon with
  | Error findings ->
      Leaked ("chan ring alias: audit violation: " ^ first_finding findings)
  | Ok _ -> (
      if
        Zion.Monitor.cvm_state mon ~cvm:(Kvm.cvm_id ha)
        <> Some Zion.Cvm.Quarantined
      then Leaked "chan ring alias: hostile subtree accepted"
      else
        match Zion.Monitor.chan_info mon ~chan with
        | Some ci when ci.Zion.Monitor.ci_page <> None ->
            Leaked "chan ring alias: quarantine left the ring page owned"
        | _ ->
            Blocked
              "SM entry validation quarantined the aliasing CVM; channel swept")

let chan_accept_stale_epoch kvm ha hb =
  let mon = Kvm.monitor kvm in
  let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
  let meas id =
    Option.value ~default:"" (Zion.Monitor.cvm_measurement mon ~cvm:id)
  in
  let chan, _ =
    chan_setup "stale-epoch"
      (Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"stale-a"
         ~expect:(meas b))
  in
  (* Slide B through a migration lock/abort between offer and accept:
     both transitions bump B's lifecycle epoch, so the epoch captured in
     the offer is stale and accept must refuse — the attestation a peer
     verified no longer describes this incarnation. *)
  ignore
    (chan_setup "stale-epoch"
       (Zion.Monitor.migrate_out_begin mon ~cvm:b ~session:"atk-stale"));
  ignore (Zion.Monitor.migrate_out_abort mon ~session:"atk-stale");
  match
    Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"stale-b" ~expect:(meas a)
  with
  | Ok _ -> Leaked "stale-epoch accept: mapping went live"
  | Error Zion.Ecall.Denied ->
      ignore (Zion.Monitor.chan_revoke mon ~chan ~cvm:a);
      chan_judge kvm ~chan ~label:"stale-epoch accept refused" ~alive:[ a; b ]
  | Error e ->
      Leaked
        ("stale-epoch accept: the SM answered " ^ Zion.Ecall.error_to_string e
       ^ ", not the epoch check")

let chan_peer_destroyed_mid_accept kvm ha hb =
  let mon = Kvm.monitor kvm in
  let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
  let meas id =
    Option.value ~default:"" (Zion.Monitor.cvm_measurement mon ~cvm:id)
  in
  let chan, _ =
    chan_setup "mid-accept"
      (Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"mid-a"
         ~expect:(meas b))
  in
  (* The grantor dies between offer and accept: destroy sweeps the
     offered channel, so the accept must find it already dead and never
     install a mapping into B. *)
  chan_setup "mid-accept" (Zion.Monitor.destroy_cvm mon ~cvm:a);
  match
    Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"mid-b" ~expect:(meas a)
  with
  | Ok _ -> Leaked "mid-accept: mapping went live against a dead grantor"
  | Error _ ->
      chan_judge kvm ~chan ~label:"accept after grantor destroy" ~alive:[ b ]

let chan_quarantined_peer kvm ha hb =
  let chan = chan_connect kvm ha hb in
  (* Quarantine A (hostile shared subtree) while the channel is live: the
     implicit revoke must tear the ring out of *both* halves, and B must
     keep running. *)
  let mon = Kvm.monitor kvm in
  let pool_base, _ = first_region mon in
  Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map ha)
    ~gpa:Zion.Layout.shared_gpa_base ~pa:pool_base;
  ignore
    (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:(Kvm.cvm_id ha) ~vcpu:0
       ~max_steps:100);
  if Zion.Monitor.cvm_state mon ~cvm:(Kvm.cvm_id ha) <> Some Zion.Cvm.Quarantined
  then Leaked "quarantined-peer: hostile subtree accepted"
  else
    match Zion.Monitor.chan_poll mon ~chan with
    | Ok true -> Leaked "quarantined-peer: channel outlived the quarantine"
    | Ok false | Error _ ->
        chan_judge kvm ~chan ~label:"quarantined peer" ~alive:[ Kvm.cvm_id hb ]

(* ---------- the suite ---------- *)

type group = Host | Ring | Channel

(* The host vectors, in this order on one platform: the shared-vCPU
   tampering and the subtree alias share one parked guest, which the
   tampering quarantines, so the register theft parks a guest of its
   own. *)
let host_vectors tb =
  let machine = tb.Testbed.machine
  and mon = tb.Testbed.monitor
  and kvm = tb.Testbed.kvm in
  let pool_pa, _ = first_region mon in
  let parked = lazy (park_at_mmio_read kvm) in
  List.map
    (fun (name, attack) -> (name, attack ()))
    [
      ( "HS-mode load from the pool",
        fun () -> read_secure_memory machine ~pool_pa );
      ( "HS-mode store into the pool",
        fun () -> write_secure_memory machine ~pool_pa );
      ("device DMA into the pool", fun () -> dma_into_pool machine ~pool_pa);
      ( "redirect MMIO reply register (TOCTOU)",
        fun () ->
          tamper_mmio_reply_register mon
            ~cvm:(Kvm.cvm_id (Lazy.force parked)) );
      ( "steal a guest register via GET_REG",
        fun () ->
          steal_vcpu_state mon ~cvm:(Kvm.cvm_id (park_at_mmio_read kvm)) );
      ( "map a secure page into the shared subtree",
        fun () ->
          map_foreign_secure_page mon
            (Kvm.cvm_shared_map (Lazy.force parked))
            ~victim_page:pool_pa ~gpa:(Sw.slot_gpa 10) );
      ("blk read into a pool page", fun () -> blk_read_into_pool kvm);
      ("net RX fill into a pool page", fun () -> net_rx_into_pool kvm);
      ( "exitless ring over another CVM's page",
        fun () -> ring_alias_private_page kvm );
    ]

let ring_vectors =
  [
    ("desc-gpa", ring_poison_desc_gpa);
    ("desc-len", ring_poison_desc_len);
    ("used-rewind", ring_used_rewind);
    ("used-replay", ring_used_replay);
    ("used-dup-in-batch", ring_used_dup_in_batch);
    ("avail-runaway", ring_avail_runaway);
  ]

let chan_vectors =
  [
    ("poison-seq", chan_poison_seq);
    ("map-ring", chan_map_ring);
    ("stale-epoch", chan_accept_stale_epoch);
    ("destroyed-grantor", chan_peer_destroyed_mid_accept);
    ("quarantined-peer", chan_quarantined_peer);
  ]

let run_group = function
  | Host -> host_vectors (Testbed.create ())
  | Ring ->
      List.map
        (fun (name, attack) ->
          let tb = Testbed.create () in
          (name, attack tb.Testbed.kvm (Testbed.cvm tb (Guest.Gprog.hello "p"))))
        ring_vectors
  | Channel ->
      List.map
        (fun (name, attack) ->
          (* Entry validation on: the map-ring and quarantined-peer
             vectors go through the SM's shared-subtree sweep. *)
          let tb =
            Testbed.create
              ~config:
                {
                  Zion.Monitor.default_config with
                  validate_shared_on_entry = true;
                }
              ()
          in
          let a = Testbed.cvm tb (Guest.Gprog.hello "a") in
          let b = Testbed.cvm tb (Guest.Gprog.hello "b") in
          (name, attack tb.Testbed.kvm a b))
        chan_vectors

let suite groups =
  List.concat_map
    (fun g -> if List.mem g groups then run_group g else [])
    [ Host; Ring; Channel ]
