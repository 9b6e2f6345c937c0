(* Hostile-host fault injection: a seeded, deterministic fuzzing
   hypervisor that drives randomized ECALL sequences and shared-state
   tampering against a live Secure Monitor, auditing the global
   invariants after every injected fault. See DESIGN.md, "Fault model
   & SM survivability". *)

open Riscv

(* ---------- deterministic PRNG (splitmix64) ---------- *)

let rand_int = Splitmix.int
let rand_i64 = Splitmix.next_u64
let one_of r l = List.nth l (rand_int r (List.length l))

(* ---------- report ---------- *)

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

let survived r =
  r.uncaught = 0 && r.violations = [] && r.pool_clean
  && r.quarantines_reclaimed = r.quarantines

let pp_report ppf r =
  let field fmt = Format.fprintf ppf fmt in
  field "chaos: %d iterations, %d host calls (%d ok)@." r.iterations r.calls
    r.ok_calls;
  List.iter
    (fun (label, n) -> field "  error %-16s %d@." label n)
    (List.sort compare r.error_calls);
  field "  uncaught exceptions    %d@." r.uncaught;
  field "  audits run             %d@." r.audits;
  field "  audit violations       %d@." (List.length r.violations);
  List.iter (fun v -> field "    %s@." v) r.violations;
  field "  CVMs created/destroyed %d/%d@." r.cvms_created r.cvms_destroyed;
  field "  migrations c/a/total   %d/%d/%d@." r.migrations_committed
    r.migrations_aborted r.migrations;
  field "  quarantined/reclaimed  %d/%d@." r.quarantines
    r.quarantines_reclaimed;
  field "  ring poisons/fallbacks %d/%d@." r.ring_poisons r.ring_fallbacks;
  field "  chans open/poison/degr %d/%d/%d@." r.chan_opens r.chan_poisons
    r.chan_degradations;
  field "  pool clean at end      %b@." r.pool_clean;
  field "  verdict                %s@."
    (if survived r then "SURVIVED" else "COMPROMISED")

(* ---------- the hostile world ---------- *)

type world = {
  r : Splitmix.t;
  machine : Machine.t;
  mon : Zion.Monitor.t;
  dst_mon : Zion.Monitor.t;
      (* a second platform, the far end of protocol migrations *)
  kvm : Kvm.t;
  mutable live : Kvm.cvm_handle list;
  mutable orphans : int list;
      (* ids created by raw create_cvm fuzzing, with no Kvm handle *)
  mutable calls : int;
  mutable ok_calls : int;
  errors : (string, int) Hashtbl.t;
  mutable uncaught : int;
  mutable audits : int;
  mutable violations : string list;
  mutable quarantines : int;
  mutable quarantines_reclaimed : int;
  mutable created : int;
  mutable destroyed : int;
  mutable migrations : int;
  mutable mig_committed : int;
  mutable mig_aborted : int;
  mutable session_ctr : int;
  mutable ring_poisons : int;
  mutable ring_fallbacks : int;
  mutable chans : int list;
      (* channel ids the fuzzer established (may have died since) *)
  mutable chan_opens : int;
  mutable chan_poisons : int;
  mutable chan_degradations : int;
}

let guest_entry = 0x10000L

let mib n = Int64.mul (Int64.of_int n) 0x100000L

let count_result w r =
  w.calls <- w.calls + 1;
  match r with
  | Ok _ -> w.ok_calls <- w.ok_calls + 1
  | Error e ->
      let label = Zion.Ecall.error_to_string e in
      Hashtbl.replace w.errors label
        (1 + Option.value ~default:0 (Hashtbl.find_opt w.errors label))

let record_exn w exn =
  w.uncaught <- w.uncaught + 1;
  w.calls <- w.calls + 1;
  let label = "EXN " ^ Printexc.to_string exn in
  Hashtbl.replace w.errors label
    (1 + Option.value ~default:0 (Hashtbl.find_opt w.errors label))

(* Every monitor call the fuzzer makes goes through here: an exception
   crossing the ABI is exactly what the typed error interface promises
   cannot happen, so it is the headline failure we are hunting. *)
let call : 'a. world -> (unit -> ('a, Zion.Ecall.error) result) -> unit =
 fun w f ->
  match f () with
  | r -> count_result w r
  | exception exn -> record_exn w exn

(* ---------- argument fuzzers ---------- *)

let fuzz_id w =
  match rand_int w.r 5 with
  | 0 when w.live <> [] -> Kvm.cvm_id (one_of w.r w.live)
  | 1 when w.orphans <> [] -> one_of w.r w.orphans
  | 2 -> rand_int w.r 32
  | 3 -> -rand_int w.r 1000
  | _ -> Int64.to_int (Int64.logand (rand_i64 w.r) 0xFFFFFFL)

let fuzz_addr w =
  match rand_int w.r 6 with
  | 0 -> rand_i64 w.r (* wild *)
  | 1 -> Int64.neg (Int64.logand (rand_i64 w.r) 0xFFFF_FFFFL)
  | 2 -> Int64.add Bus.dram_base (Int64.logand (rand_i64 w.r) 0xFFF_FFFFL)
  | 3 -> Int64.logor (Int64.logand (rand_i64 w.r) 0xFFFF_FFFFL) 1L
  | 4 -> 0L
  | _ -> Int64.logand (rand_i64 w.r) 0x7FFF_FFFF_FFFF_FFFFL

let fuzz_string w =
  let n = rand_int w.r 600 in
  String.init n (fun _ -> Char.chr (rand_int w.r 256))

(* Session ids for migration fuzzing: a small pool of valid names (so
   calls sometimes hit a real session and exercise the state checks)
   mixed with empty and garbage strings (which must all bounce). *)
let fuzz_session w =
  match rand_int w.r 4 with
  | 0 | 1 -> "s" ^ string_of_int (rand_int w.r 4)
  | 2 -> ""
  | _ -> fuzz_string w

(* Secure-region registrations the SM must refuse without linking
   anything; the next audit catches a refused region left in the pool.
   A randomly *valid* donation would hand the SM memory the host still
   uses, which is self-sabotage rather than an attack on the SM, so
   every probe here is invalid:
   - a base that is never block-aligned;
   - a block-aligned run of blocks that PMP cannot encode (not a power
     of two, or not aligned to its size);
   - a NAPOT region while the pool already holds
     [Pmp_guard.max_regions] regions. The fuzzer first fills the PMP
     entries with honest one-block donations carved from host memory,
     as a host exhausting them would. *)
let fuzz_region w =
  let mon = w.mon in
  let register ~base ~size =
    call w (fun () -> Zion.Monitor.register_secure_region mon ~base ~size)
  in
  let sm = Zion.Monitor.secmem mon in
  let block = Zion.Secmem.block_size sm in
  let pages = Int64.to_int (Int64.div block 4096L) in
  let host_block () =
    Host_mem.alloc_pages (Kvm.host_mem w.kvm) ~align:block pages
  in
  match rand_int w.r 3 with
  | 0 ->
      let base = Int64.logor (fuzz_addr w) 1L (* never block-aligned *) in
      register ~base ~size:(fuzz_addr w)
  | 1 ->
      let blocks =
        Int64.to_int (Int64.div (Bus.dram_size w.machine.Machine.bus) block)
      in
      let nth i = Int64.add Bus.dram_base (Int64.mul (Int64.of_int i) block) in
      if rand_int w.r 2 = 0 then
        (* 3, 5 or 7 blocks: never a power of two *)
        register ~base:(nth (rand_int w.r (blocks - 8)))
          ~size:(Int64.mul (Int64.of_int (3 + (2 * rand_int w.r 3))) block)
      else
        (* two blocks at an odd block index: not size-aligned *)
        register
          ~base:(nth ((2 * rand_int w.r ((blocks / 2) - 1)) + 1))
          ~size:(Int64.mul 2L block)
  | _ ->
      let rec fill n =
        if n > 0 then
          match host_block () with
          | Some base ->
              register ~base ~size:block;
              fill (n - 1)
          | None -> ()
      in
      fill (Zion.Pmp_guard.max_regions - List.length (Zion.Secmem.regions sm));
      Option.iter
        (fun base ->
          register ~base ~size:block;
          if not (List.mem (base, block) (Zion.Secmem.regions sm)) then
            Host_mem.free_pages (Kvm.host_mem w.kvm) base pages)
        (host_block ())

(* One randomized call against a randomly chosen host-interface fid. *)
let fuzz_ecall w =
  let mon = w.mon in
  match rand_int w.r 13 with
  | 0 -> fuzz_region w
  | 1 -> (
      let nvcpus = rand_int w.r 200 - 50 and entry_pc = fuzz_addr w in
      match Zion.Monitor.create_cvm mon ~nvcpus ~entry_pc with
      | r ->
          count_result w r;
          (match r with
          | Ok id ->
              w.created <- w.created + 1;
              w.orphans <- id :: w.orphans
          | Error _ -> ())
      | exception exn -> record_exn w exn)
  | 2 ->
      call w (fun () ->
          Zion.Monitor.load_image mon ~cvm:(fuzz_id w) ~gpa:(fuzz_addr w)
            (fuzz_string w))
  | 3 -> call w (fun () -> Zion.Monitor.finalize_cvm mon ~cvm:(fuzz_id w))
  | 4 ->
      (* Misaligned, non-DRAM or secure table roots: all must bounce. *)
      let table_pa =
        match rand_int w.r 3 with
        | 0 -> Int64.logor (fuzz_addr w) 0xFFFL
        | 1 -> Int64.logand (rand_i64 w.r) 0xFFFF_F000L (* below DRAM *)
        | _ -> (
            match Zion.Secmem.regions (Zion.Monitor.secmem mon) with
            | (base, _) :: _ -> base (* inside the pool *)
            | [] -> 0L)
      in
      call w (fun () -> Zion.Monitor.install_shared mon ~cvm:(fuzz_id w) ~table_pa)
  | 5 ->
      call w (fun () ->
          Zion.Monitor.run_vcpu mon
            ~hart:(rand_int w.r 6 - 2)
            ~cvm:(fuzz_id w)
            ~vcpu:(rand_int w.r 6 - 2)
            ~max_steps:(rand_int w.r 2000 - 500))
  | 6 ->
      call w (fun () ->
          Zion.Monitor.get_vcpu_reg mon ~cvm:(fuzz_id w)
            ~vcpu:(rand_int w.r 6 - 2)
            ~reg:(rand_int w.r 40 - 4))
  | 7 ->
      call w (fun () ->
          Zion.Monitor.set_vcpu_reg mon ~cvm:(fuzz_id w)
            ~vcpu:(rand_int w.r 6 - 2)
            ~reg:(rand_int w.r 40 - 4)
            (rand_i64 w.r))
  | 8 ->
      (* A hostile host opening migration sessions on arbitrary ids:
         at worst it parks its own CVM in [Migrating_out] (it could
         equally destroy it), never anyone else's. *)
      call w (fun () ->
          Zion.Monitor.migrate_out_begin mon ~cvm:(fuzz_id w)
            ~session:(fuzz_session w))
  | 9 ->
      let session = fuzz_session w in
      if rand_int w.r 2 = 0 then
        call w (fun () -> Zion.Monitor.migrate_out_abort mon ~session)
      else call w (fun () -> Zion.Monitor.migrate_out_commit mon ~session)
  | 10 ->
      (* Random bytes never carry a valid seal, so prepare must refuse
         without allocating anything. *)
      call w (fun () ->
          Zion.Monitor.migrate_in_prepare mon ~session:(fuzz_session w)
            ~epoch:(rand_int w.r 6 - 2)
            (fuzz_string w))
  | 11 -> (
      let session = fuzz_session w in
      match rand_int w.r 3 with
      | 0 -> call w (fun () -> Zion.Monitor.migrate_in_commit mon ~session)
      | 1 -> call w (fun () -> Zion.Monitor.migrate_in_abort mon ~session)
      | _ ->
          call w (fun () ->
              Zion.Monitor.migrate_note_stalls mon ~session
                (rand_int w.r 50 - 10)))
  | _ ->
      let id = fuzz_id w in
      let was_destroyed =
        Zion.Monitor.cvm_state mon ~cvm:id = Some Zion.Cvm.Destroyed
      in
      call w (fun () -> Zion.Monitor.destroy_cvm mon ~cvm:id);
      if
        (not was_destroyed)
        && Zion.Monitor.cvm_state mon ~cvm:id = Some Zion.Cvm.Destroyed
      then begin
        w.destroyed <- w.destroyed + 1;
        w.orphans <- List.filter (fun o -> o <> id) w.orphans
      end

(* ---------- lifecycle actions ---------- *)

let guest_program w =
  match rand_int w.r 3 with
  | 0 -> Guest.Gprog.hello "c"
  | 1 ->
      Guest.Gprog.touch_pages ~start_gpa:0x200000L
        ~pages:(1 + rand_int w.r 24)
      @ Guest.Gprog.shutdown
  | _ -> Guest.Gprog.blk_read_first_byte ~sector:0 ~len:64 @ Guest.Gprog.shutdown

let forget w h = w.live <- List.filter (fun x -> x != h) w.live

(* Destroy [h] through the SM and drop it from the live set. *)
let destroy w h =
  let id = Kvm.cvm_id h in
  let before = Zion.Monitor.cvm_state w.mon ~cvm:id in
  let was_quarantined = before = Some Zion.Cvm.Quarantined in
  call w (fun () -> Zion.Monitor.destroy_cvm w.mon ~cvm:id);
  if
    before <> Some Zion.Cvm.Destroyed
    && Zion.Monitor.cvm_state w.mon ~cvm:id = Some Zion.Cvm.Destroyed
  then begin
    w.destroyed <- w.destroyed + 1;
    if was_quarantined then begin
      w.quarantines_reclaimed <- w.quarantines_reclaimed + 1
    end
  end;
  forget w h

(* Any CVM the SM parked in [Quarantined] must be reclaimable — tear
   it down immediately so its blocks return to the pool. *)
let reap_quarantined w =
  List.iter
    (fun h ->
      if
        Zion.Monitor.cvm_state w.mon ~cvm:(Kvm.cvm_id h)
        = Some Zion.Cvm.Quarantined
      then begin
        w.quarantines <- w.quarantines + 1;
        destroy w h
      end)
    w.live

let spawn w =
  if List.length w.live < 4 then begin
    match
      Kvm.create_cvm_guest w.kvm ~entry_pc:guest_entry
        ~image:[ (guest_entry, Asm.program (guest_program w)) ]
    with
    | Ok h ->
        w.created <- w.created + 1;
        w.live <- h :: w.live
    | Error _ -> ()
  end

let step w =
  match w.live with
  | [] -> spawn w
  | l -> begin
      let h = one_of w.r l in
      match
        Kvm.run_cvm w.kvm h ~hart:(rand_int w.r 2)
          ~max_steps:(500 + rand_int w.r 5000)
      with
      | Kvm.C_shutdown | Kvm.C_error _ -> destroy w h
      | Kvm.C_denied -> () (* quarantined; the reaper collects it *)
      | Kvm.C_timer | Kvm.C_limit -> ()
      | exception _ ->
          w.uncaught <- w.uncaught + 1;
          forget w h
    end

(* Corrupt the shared vCPU reply of a pending MMIO exit, then resume:
   Check-after-Load must reject and the SM must quarantine. *)
let tamper_reply w =
  match w.live with
  | [] -> ()
  | l -> (
      let h = one_of w.r l in
      let id = Kvm.cvm_id h in
      match
        Zion.Monitor.run_vcpu w.mon ~hart:0 ~cvm:id ~vcpu:0 ~max_steps:4000
      with
      | Ok (Zion.Monitor.Exit_mmio _) -> (
          (match Zion.Monitor.shared_vcpu_of w.mon ~cvm:id ~vcpu:0 with
          | Some sh -> (
              match rand_int w.r 3 with
              | 0 -> sh.Zion.Vcpu.s_reg_index <- 1 + rand_int w.r 30
              | 1 -> sh.Zion.Vcpu.s_pc_advance <- Int64.of_int (8 + rand_int w.r 4096)
              | _ ->
                  sh.Zion.Vcpu.s_gpa <- fuzz_addr w;
                  sh.Zion.Vcpu.s_pc_advance <- 0L)
          | None -> ());
          call w (fun () ->
              Zion.Monitor.run_vcpu w.mon ~hart:0 ~cvm:id ~vcpu:0
                ~max_steps:100))
      | Ok Zion.Monitor.Exit_shutdown -> destroy w h
      | Ok _ | Error _ -> ()
      | exception _ ->
          w.uncaught <- w.uncaught + 1)

(* Point a leaf of the CVM's own shared subtree at secure memory, then
   try to enter: the sweep must refuse and quarantine. The CVM is torn
   down in the same iteration so the audit sees the defended state. *)
let tamper_subtree w =
  match (w.live, Zion.Secmem.regions (Zion.Monitor.secmem w.mon)) with
  | h :: _, (pool_base, pool_size) :: _ ->
      let victim =
        Int64.add pool_base
          (Int64.mul 4096L
             (Int64.of_int
                (rand_int w.r (Int64.to_int (Int64.div pool_size 4096L)))))
      in
      let gpa =
        Int64.add Zion.Layout.shared_gpa_base
          (Int64.mul 4096L (Int64.of_int (rand_int w.r 4096)))
      in
      Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map h) ~gpa
        ~pa:victim;
      call w (fun () ->
          Zion.Monitor.run_vcpu w.mon ~hart:0 ~cvm:(Kvm.cvm_id h) ~vcpu:0
            ~max_steps:100)
  | _ -> ()

(* Hostile pokes at a live exitless ring. Arm a ring on a random CVM
   (or reuse one), publish a legitimate request, flip one host-writable
   field with an adversarial value, and drive the service/consume loop
   bounded by the stall watchdog: Check-after-Load must absorb the
   poison or degrade the association to exitful kicks — never raise.
   Half the time the poke also lands after a fallback (or with no ring
   bound at all), exercising the exitful-mode path where the ring page
   is unmapped and the poke simply misses. *)
let poison_ring w =
  match w.live with
  | [] -> ()
  | l ->
      let h = one_of w.r l in
      (match Kvm.exitless_guest w.kvm h with
      | Some _ -> ()
      | None ->
          if rand_int w.r 2 = 0 then
            ignore (Kvm.enable_exitless_io w.kvm h));
      (match Kvm.exitless_guest w.kvm h with
      | None -> ()
      | Some g -> (
          match
            Virtio_ring.submit g ~op:Guest.Swiotlb.op_blk_write
              ~len:(64 + rand_int w.r 512)
              ~data_gpa:(Guest.Swiotlb.slot_gpa (rand_int w.r 8))
              ~meta:(Int64.of_int (rand_int w.r 64))
              ()
          with
          | Ok _ | Error _ -> ()));
      w.ring_poisons <- w.ring_poisons + 1;
      let module Sw = Guest.Swiotlb in
      let off, width =
        match rand_int w.r 8 with
        | 0 -> (Sw.ring_desc_off (rand_int w.r Sw.ring_entries), 8)
        | 1 -> (Sw.ring_desc_off (rand_int w.r Sw.ring_entries) + 8, 4)
        | 2 -> (Sw.ring_desc_off (rand_int w.r Sw.ring_entries) + 12, 4)
        | 3 -> (Sw.ring_desc_off (rand_int w.r Sw.ring_entries) + 16, 8)
        | 4 -> (Sw.ring_avail_idx_off, 4)
        | 5 -> (Sw.ring_avail_entry_off (rand_int w.r Sw.ring_entries), 4)
        | 6 -> (Sw.ring_used_idx_off, 4)
        | _ -> (Sw.ring_used_entry_off (rand_int w.r Sw.ring_entries), 4)
      in
      let v =
        match rand_int w.r 5 with
        | 0 -> 0L
        | 1 -> rand_i64 w.r
        | 2 -> Int64.logand (rand_i64 w.r) 0xFFFFL
        | 3 ->
            (* Near-max sector/len values: device-side offset math must
               reject these without wrapping. *)
            Int64.sub Int64.max_int (Int64.of_int (rand_int w.r 4096))
        | _ -> 0xDEAD_0000L
      in
      let was_active = Kvm.exitless_active w.kvm h in
      (try
         ignore
           (Virtio_ring.poke ~bus:w.machine.Machine.bus
              ~translate:(fun gpa ->
                Shared_map.lookup (Kvm.cvm_shared_map h) ~gpa)
              ~off ~width v
             : bool);
         let n = ref 0 in
         while Kvm.exitless_active w.kvm h && !n <= Virtio_ring.watchdog_polls
         do
           incr n;
           ignore (Kvm.service_exitless w.kvm h : int);
           ignore (Kvm.exitless_poll w.kvm h : int * Virtio_ring.verdict);
           match Kvm.exitless_guest w.kvm h with
           | Some g when Virtio_ring.outstanding g = 0 ->
               n := Virtio_ring.watchdog_polls + 1
           | _ -> ()
         done
       with exn ->
         w.uncaught <- w.uncaught + 1;
         Hashtbl.replace w.errors
           ("EXN ring " ^ Printexc.to_string exn)
           (1
           + Option.value ~default:0
               (Hashtbl.find_opt w.errors
                  ("EXN ring " ^ Printexc.to_string exn))));
      if was_active && not (Kvm.exitless_active w.kvm h) then begin
        w.ring_fallbacks <- w.ring_fallbacks + 1
      end

(* ---------- channel actions ---------- *)

(* Open an attested channel between two distinct live CVMs, playing the
   honest relay: forward the grant, verify both reports exactly as the
   guests would (MAC, then the expected measurement in constant time),
   and only then accept. A report that fails verification aborts the
   handshake with a revoke — the mapping must never go live first. *)
let open_channel w =
  let finalized h =
    match Zion.Monitor.cvm_state w.mon ~cvm:(Kvm.cvm_id h) with
    | Some (Zion.Cvm.Runnable | Zion.Cvm.Running | Zion.Cvm.Suspended) -> true
    | _ -> false
  in
  (* The fuzzer's steady-state population hovers around one guest
     (shutdowns destroy them fast), so conjure the second endpoint on
     demand rather than waiting for a lucky census. *)
  if List.length (List.filter finalized w.live) < 2 then spawn w;
  if List.length (List.filter finalized w.live) < 2 then spawn w;
  match List.filter finalized w.live with
  | ha :: hb :: _ -> (
      let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
      let meas id = Zion.Monitor.cvm_measurement w.mon ~cvm:id in
      match (meas a, meas b) with
      | Some ma, Some mb -> (
          let nonce =
            Printf.sprintf "chaos-%Ld" (Int64.logand (rand_i64 w.r) 0xFFFFFFL)
          in
          match
            Zion.Monitor.chan_grant w.mon ~cvm:a ~peer:b ~nonce ~expect:mb
          with
          | exception exn -> record_exn w exn
          | Error _ as r -> count_result w r
          | Ok (chan, rb) as r -> (
              count_result w r;
              if
                Zion.Attest.verify_report rb
                && Zion.Attest.constant_time_eq rb.Zion.Attest.measurement mb
              then (
                match
                  Zion.Monitor.chan_accept w.mon ~chan ~cvm:b
                    ~nonce:(nonce ^ "-b") ~expect:ma
                with
                | exception exn -> record_exn w exn
                | Error _ as r -> count_result w r
                | Ok ra as r ->
                    count_result w r;
                    if
                      Zion.Attest.verify_report ra
                      && Zion.Attest.constant_time_eq ra.Zion.Attest.measurement
                           ma
                    then begin
                      w.chan_opens <- w.chan_opens + 1;
                      w.chans <- chan :: w.chans
                    end
                    else
                      ignore (Zion.Monitor.chan_revoke w.mon ~chan ~cvm:b))
              else ignore (Zion.Monitor.chan_revoke w.mon ~chan ~cvm:a)))
      | _ -> ())
  | _ -> ()

(* Poison a live channel's directional header straight through physical
   memory (in this model the host can always write secure DRAM — the
   SM's Check-after-Load is the defense, not the medium): the following
   polls must strike the channel and, at the budget, degrade it — the
   channel dies, never the endpoint CVMs, and never with a raise. *)
let chan_poison w =
  let live_chan id =
    match Zion.Monitor.chan_info w.mon ~chan:id with
    | Some ci when ci.Zion.Monitor.ci_phase = "established" -> Some ci
    | _ -> None
  in
  (* Channels rarely outlive their endpoints' next shutdown, so stand
     one up to poison if none survived since the last open. *)
  if List.filter_map live_chan w.chans = [] then open_channel w;
  match List.filter_map live_chan w.chans with
  | [] -> ()
  | cis -> (
      let ci = one_of w.r cis in
      match ci.Zion.Monitor.ci_page with
      | None -> ()
      | Some pa ->
          w.chan_poisons <- w.chan_poisons + 1;
          let base =
            if rand_int w.r 2 = 0 then pa
            else Int64.add pa (Int64.of_int Zion.Layout.chan_dir_off)
          in
          let bus = w.machine.Machine.bus in
          (match rand_int w.r 3 with
          | 0 ->
              (* sequence runaway (or rewind, once traffic has flowed) *)
              Bus.write bus base 8 (rand_i64 w.r);
              Bus.write bus (Int64.add base 8L) 8 16L
          | 1 ->
              (* oversized length: must bounce before any copy *)
              Bus.write bus base 8 1L;
              Bus.write bus (Int64.add base 8L) 8
                (Int64.of_int
                   (Zion.Layout.chan_max_msg + 1 + rand_int w.r 8192))
          | _ ->
              (* zero-length "message" *)
              Bus.write bus base 8 1L;
              Bus.write bus (Int64.add base 8L) 8 0L);
          let polls = ref 0 and stop = ref false and degraded = ref false in
          while (not !stop) && !polls <= Zion.Monitor.chan_max_strikes do
            incr polls;
            match Zion.Monitor.chan_poll w.mon ~chan:ci.Zion.Monitor.ci_id with
            | Ok true -> ()
            | Ok false ->
                stop := true;
                degraded := true
            | Error _ -> stop := true
            | exception exn ->
                record_exn w exn;
                stop := true
          done;
          if !degraded then begin
            w.chan_degradations <- w.chan_degradations + 1;
            w.chans <-
              List.filter (fun c -> c <> ci.Zion.Monitor.ci_id) w.chans
          end)

(* Channel calls with adversarial arguments — wrong ids, non-endpoint
   callers, garbage nonces and expected measurements. All must bounce
   with typed errors; a hostile "peer" must never acquire a mapping. *)
let chan_fuzz_ecall w =
  let mon = w.mon in
  let fuzz_chan w =
    match (rand_int w.r 3, w.chans) with
    | 0, c :: _ -> c
    | 1, _ -> rand_int w.r 64
    | _, _ -> -rand_int w.r 1000
  in
  match rand_int w.r 4 with
  | 0 ->
      call w (fun () ->
          Zion.Monitor.chan_grant mon ~cvm:(fuzz_id w) ~peer:(fuzz_id w)
            ~nonce:(fuzz_string w) ~expect:(fuzz_string w))
  | 1 ->
      call w (fun () ->
          Zion.Monitor.chan_accept mon ~chan:(fuzz_chan w) ~cvm:(fuzz_id w)
            ~nonce:(fuzz_string w) ~expect:(fuzz_string w))
  | 2 ->
      call w (fun () ->
          Zion.Monitor.chan_revoke mon ~chan:(fuzz_chan w) ~cvm:(fuzz_id w))
  | _ -> call w (fun () -> Zion.Monitor.chan_poll mon ~chan:(fuzz_chan w))

let flip_expand_policy w =
  Kvm.set_expand_policy w.kvm
    (match rand_int w.r 4 with
    | 0 -> Kvm.Expand_honest
    | 1 -> Kvm.Expand_deny
    | 2 -> Kvm.Expand_delay (1 + rand_int w.r 3)
    | _ -> Kvm.Expand_short)

(* Full protocol migration to the second platform, over a lossy channel
   with random fault rates and, some of the time, a crash injected on a
   random side at a random step. Whatever happens, the run must reach a
   terminal state with exactly one owner. *)
let proto_migrate w =
  let movable h =
    match Zion.Monitor.cvm_state w.mon ~cvm:(Kvm.cvm_id h) with
    | Some Zion.Cvm.Runnable | Some Zion.Cvm.Suspended -> true
    | _ -> false
  in
  match List.filter movable w.live with
  | [] -> ()
  | candidates ->
      let h = one_of w.r candidates in
      let cvm = Kvm.cvm_id h in
      w.session_ctr <- w.session_ctr + 1;
      let session = Printf.sprintf "chaos-mig-%d" w.session_ctr in
      let pm () = float_of_int (rand_int w.r 200) /. 1000. (* 0..20% *) in
      let faults =
        {
          Channel.no_faults with
          drop = pm ();
          dup = pm ();
          reorder = pm ();
          corrupt = pm ();
          delay_max = rand_int w.r 3;
        }
      in
      let crash =
        if rand_int w.r 3 = 0 then
          Some
            {
              Migrator.at = 1 + rand_int w.r 40;
              side = (if rand_int w.r 2 = 0 then Migrator.Source else Migrator.Dest);
            }
        else None
      in
      let seed = 1 + Int64.to_int (Int64.logand (rand_i64 w.r) 0xFFFFFL) in
      w.migrations <- w.migrations + 1;
      let violation msg =
        let msg = "migration " ^ session ^ ": " ^ msg in
        if not (List.mem msg w.violations) then
          w.violations <- msg :: w.violations
      in
      let check_handoff () =
        (* Whichever way it ended, the handoff must be unambiguous. *)
        match
          Migrator.handoff_clean ~src:w.mon ~dst:w.dst_mon ~cvm ~session
        with
        | Ok _ -> ()
        | Error msg -> violation msg
      in
      (match
         Migrator.run ~faults ~seed ?crash ~src:w.mon ~dst:w.dst_mon ~cvm
           ~session ()
       with
      | Ok (Migrator.Committed id, _) ->
          w.mig_committed <- w.mig_committed + 1;
          check_handoff ();
          (* the source copy was scrubbed at the commit point *)
          w.destroyed <- w.destroyed + 1;
          forget w h;
          (* retire the landed copy so the far pool drains to empty *)
          ignore (Zion.Monitor.destroy_cvm w.dst_mon ~cvm:id)
      | Ok (Migrator.Aborted _, _) ->
          w.mig_aborted <- w.mig_aborted + 1;
          check_handoff ()
      | Error msg -> violation msg
      | exception exn -> record_exn w exn)

let audit_one w mon label =
  match Zion.Monitor.audit mon with
  | Ok _ -> ()
  | Error findings ->
      List.iter
        (fun f ->
          let f = label ^ f in
          if not (List.mem f w.violations) then
            w.violations <- f :: w.violations)
        findings
  | exception exn ->
      w.uncaught <- w.uncaught + 1;
      w.violations <-
        (label ^ "audit itself raised: " ^ Printexc.to_string exn)
        :: w.violations

let audit w =
  w.audits <- w.audits + 1;
  audit_one w w.mon "";
  audit_one w w.dst_mon "dst: "

(* ---------- driver ---------- *)

(* Each of the two platforms: 2 harts and 128 MiB of DRAM. *)
let nharts = 2
let dram_mib = 128

let run ?(pool_mib = 2) ?(tlb_retention = false) ?(channels = true) ~seed
    ~iters () =
  let r = Splitmix.create seed in
  let machine = Machine.create ~nharts ~dram_size:(mib dram_mib) () in
  let config =
    {
      Zion.Monitor.default_config with
      validate_shared_on_entry = true;
      tlb_retention;
    }
  in
  let mon = Zion.Monitor.create ~config machine in
  let kvm = Kvm.create ~machine ~monitor:mon () in
  (match Kvm.donate_secure_pool kvm ~mib:pool_mib with
  | Ok () -> ()
  | Error e -> invalid_arg ("Chaos.run: " ^ e));
  (* The far end of protocol migrations: its own machine and monitor,
     with a secure pool carved out of its own DRAM. *)
  let dst_machine = Machine.create ~nharts ~dram_size:(mib dram_mib) () in
  let dst_mon = Zion.Monitor.create dst_machine in
  (match
     Zion.Monitor.register_secure_region dst_mon
       ~base:(Int64.add Bus.dram_base (mib (dram_mib / 2)))
       ~size:(mib pool_mib)
   with
  | Ok _ -> ()
  | Error e ->
      invalid_arg ("Chaos.run (dst): " ^ Zion.Ecall.error_to_string e));
  let w =
    {
      r;
      machine;
      mon;
      dst_mon;
      kvm;
      live = [];
      orphans = [];
      calls = 0;
      ok_calls = 0;
      errors = Hashtbl.create 16;
      uncaught = 0;
      audits = 0;
      violations = [];
      quarantines = 0;
      quarantines_reclaimed = 0;
      created = 0;
      destroyed = 0;
      migrations = 0;
      mig_committed = 0;
      mig_aborted = 0;
      session_ctr = 0;
      ring_poisons = 0;
      ring_fallbacks = 0;
      chans = [];
      chan_opens = 0;
      chan_poisons = 0;
      chan_degradations = 0;
    }
  in
  for i = 1 to iters do
    (match rand_int w.r 100 with
    | n when n < 8 -> spawn w
    | n when n < 38 -> step w
    | n when n < 72 -> fuzz_ecall w
    | n when n < 78 ->
        if not channels then fuzz_ecall w
        else begin
          match rand_int w.r 3 with
          | 0 -> open_channel w
          | 1 -> chan_poison w
          | _ -> chan_fuzz_ecall w
        end
    | n when n < 84 -> tamper_reply w
    | n when n < 89 -> tamper_subtree w
    | n when n < 94 -> poison_ring w
    | n when n < 95 -> flip_expand_policy w
    | n when n < 99 -> proto_migrate w
    | _ -> ( match w.live with [] -> spawn w | h :: _ -> destroy w h));
    reap_quarantined w;
    (* Audit on a sample of iterations plus always at the end: a full
       sweep every iteration dominates runtime at high iteration
       counts without finding anything a sampled sweep would not. *)
    if i mod 7 = 0 || i = iters then audit w
  done;
  (* Drain: every remaining CVM must tear down cleanly. *)
  List.iter (fun h -> destroy w h) w.live;
  List.iter
    (fun id ->
      match Zion.Monitor.cvm_state w.mon ~cvm:id with
      | None | Some Zion.Cvm.Destroyed -> ()
      | Some st ->
          if st = Zion.Cvm.Quarantined then
            w.quarantines <- w.quarantines + 1;
          call w (fun () -> Zion.Monitor.destroy_cvm w.mon ~cvm:id);
          if
            Zion.Monitor.cvm_state w.mon ~cvm:id = Some Zion.Cvm.Destroyed
          then begin
            w.destroyed <- w.destroyed + 1;
            if st = Zion.Cvm.Quarantined then
              w.quarantines_reclaimed <- w.quarantines_reclaimed + 1
          end)
    w.orphans;
  audit w;
  let clean mon =
    let sm = Zion.Monitor.secmem mon in
    Zion.Secmem.free_blocks sm = Zion.Secmem.total_blocks sm
    && Zion.Secmem.check_invariants sm = Ok ()
  in
  let pool_clean = clean mon && clean dst_mon in
  {
    iterations = iters;
    calls = w.calls;
    ok_calls = w.ok_calls;
    error_calls = Hashtbl.fold (fun k v acc -> (k, v) :: acc) w.errors [];
    uncaught = w.uncaught;
    audits = w.audits;
    violations = List.rev w.violations;
    quarantines = w.quarantines;
    quarantines_reclaimed = w.quarantines_reclaimed;
    cvms_created = w.created;
    cvms_destroyed = w.destroyed;
    migrations = w.migrations;
    migrations_committed = w.mig_committed;
    migrations_aborted = w.mig_aborted;
    ring_poisons = w.ring_poisons;
    ring_fallbacks = w.ring_fallbacks;
    chan_opens = w.chan_opens;
    chan_poisons = w.chan_poisons;
    chan_degradations = w.chan_degradations;
    pool_clean;
  }

(* ---------- SM-crash sweeps ---------- *)

(* Kill the monitor at *every* journal point of every journaled SM
   operation, reboot, recover, and demand convergence: audit clean,
   second recovery a no-op, every CVM destroyable, pool back to
   all-free. Deterministic — no seed: the crash schedule is exhaustive,
   not sampled. *)

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

let sm_survived r = r.sm_failures = []

let pp_sm_report ppf r =
  let field fmt = Format.fprintf ppf fmt in
  field "sm-crash sweep: %d cases, %d crashes, %d recoveries@." r.sm_cases
    r.sm_crashes r.sm_recoveries;
  List.iter
    (fun (op, pts) -> field "  %-14s %d journal points@." op pts)
    r.sm_ops;
  field "  rolled forward/back    %d/%d@." r.sm_rolled_forward
    r.sm_rolled_back;
  field "  convergence failures   %d@." (List.length r.sm_failures);
  List.iter (fun f -> field "    %s@." f) r.sm_failures;
  field "  verdict                %s@."
    (if sm_survived r then "SURVIVED" else "COMPROMISED")

type sm_inst = {
  si_mon : Zion.Monitor.t;  (* the monitor whose journal is crashed *)
  si_aux : Zion.Monitor.t list;  (* other monitors to audit and drain *)
  si_op : unit -> unit;  (* the journaled operation under test *)
  si_drain : unit -> unit;  (* session cleanup before the destroy loop *)
}

type sm_scenario = { ss_name : string; ss_build : unit -> sm_inst }

let sm_world () =
  let machine = Machine.create ~nharts:2 ~dram_size:(mib 32) () in
  let config =
    { Zion.Monitor.default_config with validate_shared_on_entry = true }
  in
  let mon = Zion.Monitor.create ~config machine in
  let kvm = Kvm.create ~machine ~monitor:mon () in
  (match Kvm.donate_secure_pool kvm ~mib:2 with
  | Ok () -> ()
  | Error e -> invalid_arg ("Chaos.sm_world: " ^ e));
  (mon, kvm)

(* Setup steps run with the journal disarmed and must succeed; a
   failure here is a broken scenario, not a survivability finding. *)
let sm_expect what = function
  | Ok v -> v
  | Error e ->
      invalid_arg
        (Printf.sprintf "Chaos.sm_crash_sweep setup (%s): %s" what
           (Zion.Ecall.error_to_string e))

let sm_guest ?(prog = Guest.Gprog.hello "c") kvm =
  match
    Kvm.create_cvm_guest kvm ~entry_pc:guest_entry
      ~image:[ (guest_entry, Asm.program prog) ]
  with
  | Ok h -> h
  | Error e -> invalid_arg ("Chaos.sm_crash_sweep setup (guest): " ^ e)

(* Two finalized guests on one monitor, plus their measurements — the
   raw material of every channel scenario. *)
let sm_chan_pair mon kvm =
  let ha = sm_guest kvm in
  let hb = sm_guest kvm in
  let a = Kvm.cvm_id ha and b = Kvm.cvm_id hb in
  let meas id =
    match Zion.Monitor.cvm_measurement mon ~cvm:id with
    | Some m -> m
    | None -> invalid_arg "Chaos.sm_crash_sweep setup (chan): no measurement"
  in
  (ha, hb, a, b, meas a, meas b)

(* Drive the full attested handshake with the journal quiet, leaving an
   Established channel for the op under test to tear at. *)
let sm_chan_established mon kvm =
  let ha, hb, a, b, ma, mb = sm_chan_pair mon kvm in
  let chan, _ =
    sm_expect "chan_grant"
      (Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"sweep-a" ~expect:mb)
  in
  ignore
    (sm_expect "chan_accept"
       (Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"sweep-b" ~expect:ma));
  (ha, hb, a, b, chan)

let sm_scenarios () =
  let solo name build_op =
    {
      ss_name = name;
      ss_build =
        (fun () ->
          let mon, kvm = sm_world () in
          let op, drain = build_op mon kvm in
          { si_mon = mon; si_aux = []; si_op = op; si_drain = drain });
    }
  in
  [
    solo "create" (fun mon _ ->
        ( (fun () ->
            ignore
              (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)),
          ignore ));
    solo "load" (fun mon _ ->
        let id =
          sm_expect "create"
            (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:guest_entry)
        in
        ( (fun () ->
            ignore
              (Zion.Monitor.load_image mon ~cvm:id ~gpa:0x200000L
                 (String.make (3 * 4096) 'x'))),
          ignore ));
    solo "expand" (fun _ kvm ->
        ( (fun () ->
            match Kvm.donate_secure_pool kvm ~mib:2 with
            | Ok () | Error _ -> ()),
          ignore ));
    solo "relinquish" (fun mon kvm ->
        let prog =
          Guest.Gprog.relinquish ~gpa:0x200000L @ Guest.Gprog.shutdown
        in
        let h = sm_guest ~prog kvm in
        ( (fun () ->
            ignore
              (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:(Kvm.cvm_id h) ~vcpu:0
                 ~max_steps:50_000)),
          ignore ));
    solo "destroy" (fun mon kvm ->
        let h = sm_guest kvm in
        ( (fun () ->
            ignore (Zion.Monitor.destroy_cvm mon ~cvm:(Kvm.cvm_id h))),
          ignore ));
    solo "quarantine" (fun mon kvm ->
        let h = sm_guest kvm in
        let pool_base, _ =
          List.hd (Zion.Secmem.regions (Zion.Monitor.secmem mon))
        in
        Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map h)
          ~gpa:Zion.Layout.shared_gpa_base ~pa:pool_base;
        ( (fun () ->
            ignore
              (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:(Kvm.cvm_id h) ~vcpu:0
                 ~max_steps:100)),
          ignore ));
    solo "mig-out-begin" (fun mon kvm ->
        let h = sm_guest kvm in
        ( (fun () ->
            ignore
              (Zion.Monitor.migrate_out_begin mon ~cvm:(Kvm.cvm_id h)
                 ~session:"sweep")),
          fun () ->
            ignore (Zion.Monitor.migrate_out_abort mon ~session:"sweep") ));
    solo "mig-out-abort" (fun mon kvm ->
        let h = sm_guest kvm in
        ignore
          (sm_expect "out_begin"
             (Zion.Monitor.migrate_out_begin mon ~cvm:(Kvm.cvm_id h)
                ~session:"sweep"));
        ( (fun () ->
            ignore (Zion.Monitor.migrate_out_abort mon ~session:"sweep")),
          ignore ));
    solo "mig-out-commit" (fun mon kvm ->
        let h = sm_guest kvm in
        ignore
          (sm_expect "out_begin"
             (Zion.Monitor.migrate_out_begin mon ~cvm:(Kvm.cvm_id h)
                ~session:"sweep"));
        ( (fun () ->
            ignore (Zion.Monitor.migrate_out_commit mon ~session:"sweep")),
          ignore ));
    (* Channel lifecycle: every journaled chan_* transition, plus every
       implicit revocation path (endpoint destroy, quarantine, and
       migrate-out commit), torn at each journal point. *)
    solo "chan-grant" (fun mon kvm ->
        let _, _, a, b, _, mb = sm_chan_pair mon kvm in
        ( (fun () ->
            ignore
              (Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"sweep-a"
                 ~expect:mb)),
          ignore ));
    solo "chan-accept" (fun mon kvm ->
        let _, _, a, b, ma, mb = sm_chan_pair mon kvm in
        let chan, _ =
          sm_expect "chan_grant"
            (Zion.Monitor.chan_grant mon ~cvm:a ~peer:b ~nonce:"sweep-a"
               ~expect:mb)
        in
        ( (fun () ->
            ignore
              (Zion.Monitor.chan_accept mon ~chan ~cvm:b ~nonce:"sweep-b"
                 ~expect:ma)),
          ignore ));
    solo "chan-revoke" (fun mon kvm ->
        let _, _, a, _, chan = sm_chan_established mon kvm in
        ( (fun () -> ignore (Zion.Monitor.chan_revoke mon ~chan ~cvm:a)),
          ignore ));
    solo "chan-degrade" (fun mon kvm ->
        let _, _, _, _, chan = sm_chan_established mon kvm in
        let pa =
          match Zion.Monitor.chan_info mon ~chan with
          | Some { Zion.Monitor.ci_page = Some pa; _ } -> pa
          | _ ->
              invalid_arg "Chaos.sm_crash_sweep setup (chan-degrade): no ring"
        in
        let bus = (Kvm.machine kvm).Machine.bus in
        (* A zero-length "message" in the a→b header: every poll strikes,
           and the strike that exhausts the budget journals the
           degradation teardown — the op we crash at every point. *)
        Bus.write bus pa 8 1L;
        Bus.write bus (Int64.add pa 8L) 8 0L;
        ( (fun () ->
            for _ = 1 to Zion.Monitor.chan_max_strikes do
              ignore (Zion.Monitor.chan_poll mon ~chan)
            done),
          ignore ));
    solo "chan-destroy-a" (fun mon kvm ->
        let _, _, a, _, _ = sm_chan_established mon kvm in
        ((fun () -> ignore (Zion.Monitor.destroy_cvm mon ~cvm:a)), ignore));
    solo "chan-destroy-b" (fun mon kvm ->
        let _, _, _, b, _ = sm_chan_established mon kvm in
        ((fun () -> ignore (Zion.Monitor.destroy_cvm mon ~cvm:b)), ignore));
    solo "chan-quarantine" (fun mon kvm ->
        let ha, _, a, _, _ = sm_chan_established mon kvm in
        let pool_base, _ =
          List.hd (Zion.Secmem.regions (Zion.Monitor.secmem mon))
        in
        Shared_map.map_secure_page_for_attack (Kvm.cvm_shared_map ha)
          ~gpa:Zion.Layout.shared_gpa_base ~pa:pool_base;
        ( (fun () ->
            ignore
              (Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:a ~vcpu:0 ~max_steps:100)),
          ignore ));
    solo "chan-mig-commit" (fun mon kvm ->
        let _, _, a, _, _ = sm_chan_established mon kvm in
        ignore
          (sm_expect "out_begin"
             (Zion.Monitor.migrate_out_begin mon ~cvm:a ~session:"sweep"));
        ( (fun () ->
            ignore (Zion.Monitor.migrate_out_commit mon ~session:"sweep")),
          ignore ));
  ]
  @
  (* Migration-in ops crash the *destination* monitor; the source is
     audited and drained alongside. *)
  let mig_in name op drain_src =
    {
      ss_name = name;
      ss_build =
        (fun () ->
          let src, skvm = sm_world () in
          let h = sm_guest skvm in
          let blob, epoch =
            sm_expect "out_begin"
              (Zion.Monitor.migrate_out_begin src ~cvm:(Kvm.cvm_id h)
                 ~session:"sweep")
          in
          let dst, _ = sm_world () in
          op ~src ~dst ~blob ~epoch;
          {
            si_mon = dst;
            si_aux = [ src ];
            si_op =
              (match name with
              | "mig-in-prepare" ->
                  fun () ->
                    ignore
                      (Zion.Monitor.migrate_in_prepare dst ~session:"sweep"
                         ~epoch blob)
              | "mig-in-commit" ->
                  fun () ->
                    ignore (Zion.Monitor.migrate_in_commit dst ~session:"sweep")
              | _ ->
                  fun () ->
                    ignore (Zion.Monitor.migrate_in_abort dst ~session:"sweep"));
            si_drain =
              (fun () ->
                ignore (Zion.Monitor.migrate_in_abort dst ~session:"sweep");
                drain_src src);
          });
    }
  in
  let prepared ~src:_ ~dst ~blob ~epoch =
    ignore
      (sm_expect "in_prepare"
         (Zion.Monitor.migrate_in_prepare dst ~session:"sweep" ~epoch blob))
  in
  [
    mig_in "mig-in-prepare"
      (fun ~src:_ ~dst:_ ~blob:_ ~epoch:_ -> ())
      (fun src ->
        ignore (Zion.Monitor.migrate_out_abort src ~session:"sweep"));
    mig_in "mig-in-commit" prepared (fun src ->
        ignore (Zion.Monitor.migrate_out_commit src ~session:"sweep"));
    mig_in "mig-in-abort" prepared (fun src ->
        ignore (Zion.Monitor.migrate_out_abort src ~session:"sweep"));
  ]

(* Bounds the per-operation sweep and the nested recovery crashes, in
   case a regression makes an operation journal unboundedly. *)
let max_points = 64

let sm_crash_sweep () =
  let failures = ref [] in
  let fail name k msg =
    let m = Printf.sprintf "%s@%d: %s" name k msg in
    if not (List.mem m !failures) then failures := m :: !failures
  in
  let crashes = ref 0 and recoveries = ref 0 in
  let fwd = ref 0 and back = ref 0 in
  let cases = ref 0 in
  let op_points = ref [] in
  (* One case: arm the journal to crash at point [k] of the operation,
     run it, and (if the crash fired) reboot + recover — the recovery
     itself is crashed at successively later points until one run
     completes, exercising recover-after-recover-crash. Returns whether
     the crash fired. *)
  let run_case name k inst =
    incr cases;
    let j = Zion.Monitor.journal inst.si_mon in
    let crashed = ref false in
    (try
       Zion.Journal.set_crash_after j k;
       inst.si_op ();
       Zion.Journal.disarm j
     with
    | Zion.Journal.Crashed -> crashed := true
    | exn ->
        Zion.Journal.disarm j;
        fail name k ("op raised " ^ Printexc.to_string exn));
    if !crashed then begin
      incr crashes;
      Zion.Monitor.crash_reboot inst.si_mon;
      let rec recover_through_crashes jj =
        if jj <= max_points then begin
          Zion.Journal.set_crash_after j jj;
          match Zion.Monitor.recover inst.si_mon with
          | rep ->
              Zion.Journal.disarm j;
              incr recoveries;
              rep
          | exception Zion.Journal.Crashed ->
              incr crashes;
              Zion.Monitor.crash_reboot inst.si_mon;
              recover_through_crashes (jj + 1)
        end
        else begin
          Zion.Journal.disarm j;
          incr recoveries;
          Zion.Monitor.recover inst.si_mon
        end
      in
      match recover_through_crashes 1 with
      | rep ->
          fwd := !fwd + rep.Zion.Monitor.rr_rolled_forward;
          back := !back + rep.Zion.Monitor.rr_rolled_back
      | exception exn -> fail name k ("recover raised " ^ Printexc.to_string exn)
    end;
    (* Convergence: every monitor audits clean... *)
    List.iter
      (fun mon ->
        match Zion.Monitor.audit mon with
        | Ok _ -> ()
        | Error findings ->
            List.iter (fun f -> fail name k ("audit: " ^ f)) findings
        | exception exn ->
            fail name k ("audit raised " ^ Printexc.to_string exn))
      (inst.si_mon :: inst.si_aux);
    (* ...recovery is idempotent (a second run finds nothing pending)... *)
    if !crashed then begin
      match Zion.Monitor.recover inst.si_mon with
      | rep ->
          incr recoveries;
          if rep.Zion.Monitor.rr_pending <> 0 then
            fail name k
              (Printf.sprintf "second recovery found %d pending records"
                 rep.Zion.Monitor.rr_pending)
      | exception exn ->
          fail name k ("re-recover raised " ^ Printexc.to_string exn)
    end;
    (* ...and the whole world still tears down to an all-free pool. *)
    (try inst.si_drain ()
     with exn -> fail name k ("drain raised " ^ Printexc.to_string exn));
    List.iter
      (fun mon ->
        for id = 0 to 15 do
          ignore (Zion.Monitor.destroy_cvm mon ~cvm:id)
        done;
        (match Zion.Monitor.audit mon with
        | Ok _ -> ()
        | Error findings ->
            List.iter (fun f -> fail name k ("post-drain audit: " ^ f)) findings
        | exception exn ->
            fail name k ("post-drain audit raised " ^ Printexc.to_string exn));
        let sm = Zion.Monitor.secmem mon in
        if Zion.Secmem.free_blocks sm <> Zion.Secmem.total_blocks sm then
          fail name k "pool did not drain to all-free";
        match Zion.Secmem.check_invariants sm with
        | Ok () -> ()
        | Error m -> fail name k ("pool invariants: " ^ m))
      (inst.si_mon :: inst.si_aux);
    !crashed
  in
  List.iter
    (fun sc ->
      let k = ref 1 in
      let swept = ref false in
      while (not !swept) && !k <= max_points do
        let inst = sc.ss_build () in
        if run_case sc.ss_name !k inst then incr k
        else begin
          (* the op completed before point [k]: every point is covered *)
          op_points := (sc.ss_name, !k - 1) :: !op_points;
          swept := true
        end
      done;
      if not !swept then begin
        op_points := (sc.ss_name, max_points) :: !op_points;
        fail sc.ss_name max_points
          "sweep did not exhaust the op's journal points"
      end)
    (sm_scenarios ());
  {
    sm_ops = List.rev !op_points;
    sm_cases = !cases;
    sm_crashes = !crashes;
    sm_recoveries = !recoveries;
    sm_rolled_forward = !fwd;
    sm_rolled_back = !back;
    sm_failures = List.rev !failures;
  }
