(* Attested inter-CVM channels: the channel table and [next_chan_id],
   the host calls that grant, accept, revoke and poll a channel, the
   guest's send and receive, and the channels' journal replay and audit
   clauses. Nothing outside this module writes a channel. *)

open Riscv
open Sm_state

let chan_max_strikes = 3
let find_channel t id = Hashtbl.find_opt t.channels id

let chan_live ch =
  match ch.ch_phase with
  | Chan_offered | Chan_established -> true
  | Chan_revoked | Chan_degraded -> false

let chan_counter t ~cvm name =
  Metrics.Registry.inc t.registry ~scope:(Metrics.Registry.Cvm cvm) name

(* Drop the ring's slot mapping from both endpoints, where it still
   points at the ring: a destroyed endpoint's tables are already
   reclaimed memory and must not be written. *)
let unmap_slot t ch pa =
  let unmap id =
    match find_cvm t id with
    | Some cvm when cvm.Cvm.state <> Cvm.Destroyed -> (
        match Spt.lookup cvm.Cvm.spt ~gpa:ch.ch_gpa with
        | Some pa' when pa' = pa ->
            ignore (Spt.unmap_private cvm.Cvm.spt ~gpa:ch.ch_gpa)
        | _ -> ())
    | _ -> ()
  in
  unmap ch.ch_a;
  unmap ch.ch_b

(* Idempotent channel teardown: drop the slot mapping from both
   endpoints, scrub the ring page, shoot it down precisely on both
   VMIDs, and return the block to the pool. Recovery and the
   destroy/quarantine sweeps re-run this from any torn intermediate
   state, so every step tolerates having already happened. [record],
   when given, interleaves the checkpoints that make the intermediate
   states reachable crash points. *)
let chan_teardown ?record t ch ~phase ~reason =
  if chan_live ch then begin
    (match ch.ch_page with
     | None -> ()
     | Some pa ->
         unmap_slot t ch pa;
         checkpoint ?record t "chan-unmapped";
         scrub t pa (Int64.of_int Layout.chan_ring_size);
         charge t "sm_scrub" t.cost.Cost.page_scrub;
         (* Either endpoint may retain the translation on any hart:
            shoot the page down precisely, scoped per VMID. *)
         fence_all t (fun tlb ->
             Tlb.flush_pa ~vmid:ch.ch_a tlb pa;
             Tlb.flush_pa ~vmid:ch.ch_b tlb pa);
         charge t "sm_shootdown"
           (2 * Array.length t.machine.Machine.harts
           * t.cost.Cost.tlb_vmid_flush);
         checkpoint ?record t "chan-scrubbed";
         if not (Secmem.is_free_base t.sm pa) then
           ignore (Hier_alloc.reclaim_base t.sm ~base:pa);
         ch.ch_page <- None);
    ch.ch_phase <- phase;
    ch.ch_reason <- Some reason;
    if obs t then
      Metrics.Trace.instant t.trace
        ~args:[ ("chan", string_of_int ch.ch_id); ("reason", reason) ]
        "chan.teardown"
  end

(* Implicit revoke: every live channel touching [id] dies with it. Runs
   inside the caller's journal window (destroy, quarantine, migrate-out
   commit), so replaying the enclosing record re-runs the sweep. *)
let chan_sweep_for ?record t id ~reason =
  Hashtbl.iter
    (fun _ ch ->
      if chan_live ch && (ch.ch_a = id || ch.ch_b = id) then begin
        chan_teardown ?record t ch ~phase:Chan_revoked ~reason;
        chan_counter t ~cvm:id "sm.chan.revokes"
      end)
    t.channels

(* The ring page layout (see Layout): two directional halves, each
   [seq:u64][len:u64][payload]. The owner of a half bumps seq after
   writing payload+len; the SM keeps the last *delivered* seq per
   direction as its shadow, so Check-after-Load at consume time never
   trusts a header field it has not bounded. *)

let chan_runaway_bound = 0x100000L
(* A producer may run ahead of deliveries, but not by 2^20 messages:
   past that the seq is garbage, not backlog. *)

let chan_dir_base ch ~from_a =
  match ch.ch_page with
  | None -> invalid_arg "chan_dir_base: channel holds no ring page"
  | Some pa ->
      if from_a then pa else Int64.add pa (Int64.of_int Layout.chan_dir_off)

(* Generate [cvm]'s attestation report over [nonce], MAC-bound to its
   current lifecycle epoch. *)
let chan_report (cvm : Cvm.t) ~measurement ~nonce =
  Attest.make_report ~cvm_id:cvm.Cvm.id ~epoch:cvm.Cvm.epoch ~measurement
    ~nonce

(* Both endpoints exist, neither is quarantined, both are live and both
   are measured: the preconditions grant and accept share, in this
   order of precedence. *)
let chan_endpoints t a_id b_id =
  match (found t.cvms a_id, found t.cvms b_id) with
  | Error e, _ | _, Error e -> Error e
  | Ok a, Ok b -> (
      if a.Cvm.state = Cvm.Quarantined || b.Cvm.state = Cvm.Quarantined then
        Error Ecall.Quarantined
      else if not (live_state a && live_state b) then Error Ecall.Bad_state
      else
        match (a.Cvm.measurement, b.Cvm.measurement) with
        | Some ma, Some mb -> Ok (a, ma, b, mb)
        | None, _ | _, None -> Error Ecall.Bad_state)

let chan_grant_impl t ~cvm:a_id ~peer:b_id ~nonce ~expect =
  if not (Attest.valid_nonce nonce) then Error Ecall.Invalid_param
  else if a_id = b_id then Error Ecall.Invalid_param
  else
    let* a, _, b, mb = chan_endpoints t a_id b_id in
    (* The granter's admission policy: nothing is allocated for a peer
       whose current measurement is not the one the granter expects. *)
    if not (Attest.constant_time_eq mb expect) then begin
      chan_counter t ~cvm:a_id "sm.chan.peer_rejects";
      Error Ecall.Denied
    end
    else if t.next_chan_id >= Layout.chan_slots then Error Ecall.No_memory
    else
      let* block_base =
        Option.to_result ~none:Ecall.No_memory (Secmem.peek_block_base t.sm)
      in
      let id = t.next_chan_id in
      let jr =
        Journal.append t.journal
          (Journal.Op_chan_grant { chan = id; a = a_id; b = b_id; block_base })
      in
      t.next_chan_id <- id + 1;
      match Secmem.alloc_block t.sm with
      | None ->
          (* unreachable: the peek above saw a free block *)
          Journal.mark_done t.journal jr;
          Error Ecall.No_memory
      | Some blk ->
          Journal.checkpoint t.journal jr "block";
          let pa = Secmem.block_base blk in
          scrub t pa (Int64.of_int Layout.chan_ring_size);
          charge t "sm_chan" (t.cost.Cost.block_grab + t.cost.Cost.page_scrub);
          Hashtbl.replace t.channels id
            {
              ch_id = id;
              ch_a = a_id;
              ch_b = b_id;
              ch_phase = Chan_offered;
              ch_page = Some pa;
              ch_gpa = Layout.chan_slot_gpa id;
              ch_epoch_a = a.Cvm.epoch;
              ch_epoch_b = b.Cvm.epoch;
              ch_seq_ab = 0L;
              ch_seq_ba = 0L;
              ch_strikes = 0;
              ch_reason = None;
            };
          Journal.checkpoint t.journal jr "registered";
          chan_counter t ~cvm:a_id "sm.chan.grants";
          if obs t then
            Metrics.Trace.instant t.trace ~cvm:a_id
              ~args:[ ("chan", string_of_int id); ("peer", string_of_int b_id) ]
              "chan.grant";
          Journal.mark_done t.journal jr;
          (* The peer's report over the granter's nonce, bound to the
             peer's current epoch: the granter verifies it before telling
             its guest the channel id. *)
          Ok (id, chan_report b ~measurement:mb ~nonce)

let chan_grant t ~cvm ~peer ~nonce ~expect =
  host_call t "chan_grant" ~cvm (fun () ->
      chan_grant_impl t ~cvm ~peer ~nonce ~expect)

let chan_accept_impl t ~chan ~cvm:b_id ~nonce ~expect =
  if not (Attest.valid_nonce nonce) then Error Ecall.Invalid_param
  else
    match found t.channels chan with
    | Error e -> Error e
    | Ok ch ->
        if ch.ch_b <> b_id then Error Ecall.Denied
        else if ch.ch_phase <> Chan_offered then Error Ecall.Bad_state
        else
          let* a, ma, b, _ = chan_endpoints t ch.ch_a ch.ch_b in
          (* Freshness, then identity: any lifecycle transition since the
             offer (a migrate-out lock or release) makes its attestation
             evidence stale, so a pre-migration report cannot be replayed to
             establish a channel; and the granter must still measure what
             the acceptor expects. *)
          if
            a.Cvm.epoch <> ch.ch_epoch_a
            || b.Cvm.epoch <> ch.ch_epoch_b
            || not (Attest.constant_time_eq ma expect)
          then begin
            chan_counter t ~cvm:b_id "sm.chan.peer_rejects";
            Error Ecall.Denied
          end
          else
            let pa = Option.get ch.ch_page (* an offer holds its page *) in
            (* The slot must be free in both private halves: a demand-paged
               page at the slot GPA would alias a mapping the guest already
               relies on. *)
            if
              Spt.lookup a.Cvm.spt ~gpa:ch.ch_gpa <> None
              || Spt.lookup b.Cvm.spt ~gpa:ch.ch_gpa <> None
            then Error Ecall.Already_exists
            else begin
              let jr =
                Journal.append t.journal (Journal.Op_chan_accept { chan })
              in
              match
                Spt.map_private a.Cvm.spt ~gpa:ch.ch_gpa ~pa ~writable:true
              with
              | Error _ ->
                  Journal.mark_done t.journal jr;
                  Error Ecall.No_memory
              | Ok () -> (
                  Journal.checkpoint t.journal jr "map-a";
                  match
                    Spt.map_private b.Cvm.spt ~gpa:ch.ch_gpa ~pa ~writable:true
                  with
                  | Error _ ->
                      ignore (Spt.unmap_private a.Cvm.spt ~gpa:ch.ch_gpa);
                      Journal.mark_done t.journal jr;
                      Error Ecall.No_memory
                  | Ok () ->
                      Journal.checkpoint t.journal jr "map-b";
                      ch.ch_phase <- Chan_established;
                      ch.ch_seq_ab <- 0L;
                      ch.ch_seq_ba <- 0L;
                      ch.ch_strikes <- 0;
                      charge t "sm_chan" (2 * t.cost.Cost.gstage_map);
                      chan_counter t ~cvm:b_id "sm.chan.accepts";
                      if obs t then
                        Metrics.Trace.instant t.trace ~cvm:b_id
                          ~args:[ ("chan", string_of_int chan) ]
                          "chan.accept";
                      Journal.mark_done t.journal jr;
                      Ok (chan_report a ~measurement:ma ~nonce))
            end

let chan_accept t ~chan ~cvm ~nonce ~expect =
  host_call t "chan_accept" ~cvm (fun () ->
      chan_accept_impl t ~chan ~cvm ~nonce ~expect)

let chan_revoke_impl t ~chan ~cvm:id =
  match found t.channels chan with
  | Error e -> Error e
  | Ok ch ->
      if ch.ch_a <> id && ch.ch_b <> id then Error Ecall.Denied
      else if not (chan_live ch) then Ok () (* idempotent *)
      else begin
        let jr =
          Journal.append t.journal
            (Journal.Op_chan_revoke { chan; degraded = false })
        in
        chan_teardown ~record:jr t ch ~phase:Chan_revoked
          ~reason:"revoked by endpoint";
        chan_counter t ~cvm:id "sm.chan.revokes";
        Journal.mark_done t.journal jr;
        Ok ()
      end

let chan_revoke t ~chan ~cvm =
  host_call t "chan_revoke" ~cvm (fun () -> chan_revoke_impl t ~chan ~cvm)

(* The exitless ring's Byzantine discipline aimed at a hostile *peer*:
   one strike per rejected header field; at the budget the channel —
   never the CVM — is one-way degraded (journaled, scrubbed, unmapped,
   block reclaimed). *)
let chan_strike t ch ~victim verdict =
  ch.ch_strikes <- ch.ch_strikes + 1;
  chan_counter t ~cvm:victim "sm.chan.peer_rejects";
  if obs t then
    Metrics.Trace.instant t.trace ~cvm:victim
      ~args:[ ("chan", string_of_int ch.ch_id); ("verdict", verdict) ]
      "chan.cal_reject";
  if ch.ch_strikes >= chan_max_strikes && chan_live ch then begin
    let jr =
      Journal.append t.journal
        (Journal.Op_chan_revoke { chan = ch.ch_id; degraded = true })
    in
    chan_teardown ~record:jr t ch ~phase:Chan_degraded
      ~reason:(Printf.sprintf "strike budget exhausted (%s)" verdict);
    chan_counter t ~cvm:victim "sm.chan.degradations";
    Journal.mark_done t.journal jr
  end

(* Check-after-Load over one peer-writable directional half: load seq
   and len exactly once, bound them against the SM's shadow, and only
   then classify. *)
type chan_msg = Chan_idle | Chan_msg of int64 * int | Chan_bad of string

let chan_check_dir t ch ~from_a ~shadow =
  let bus = t.machine.Machine.bus in
  let base = chan_dir_base ch ~from_a in
  let seq = Bus.read bus base 8 in
  let len = Bus.read bus (Int64.add base 8L) 8 in
  charge t "sm_chan" (2 * t.cost.Cost.check_after_load);
  if seq = shadow then Chan_idle
  else if Xword.ult seq shadow then Chan_bad "seq_rewind"
  else if Xword.ult (Int64.add shadow chan_runaway_bound) seq then
    Chan_bad "seq_runaway"
  else if len < 1L || len > Int64.of_int Layout.chan_max_msg then
    Chan_bad "bad_len"
  else Chan_msg (seq, Int64.to_int len)

(* Host-driveable watchdog: validate both halves' headers without
   delivering anything. Returns [Ok true] while the channel stays live,
   [Ok false] once it is dead (now or before) — degradation is not an
   error, it is the one-way outcome the host polls for. *)
let chan_poll_impl t ~chan =
  match found t.channels chan with
  | Error e -> Error e
  | Ok ch ->
      if not (chan_live ch) then Ok false
      else begin
        if ch.ch_phase = Chan_established then begin
          (match chan_check_dir t ch ~from_a:true ~shadow:ch.ch_seq_ab with
          | Chan_bad v -> chan_strike t ch ~victim:ch.ch_b v
          | Chan_idle | Chan_msg _ -> ());
          if chan_live ch then
            match chan_check_dir t ch ~from_a:false ~shadow:ch.ch_seq_ba with
            | Chan_bad v -> chan_strike t ch ~victim:ch.ch_a v
            | Chan_idle | Chan_msg _ -> ()
        end;
        Ok (chan_live ch)
      end

let chan_poll t ~chan =
  host_call t "chan_poll" (fun () -> chan_poll_impl t ~chan)

(* A guest call on [chan] is legal only from an endpoint of an
   established channel. *)
let guest_channel t cvm chan =
  match found t.channels chan with
  | Ok ch when ch.ch_a <> cvm.Cvm.id && ch.ch_b <> cvm.Cvm.id ->
      Error Ecall.Denied
  | Ok ch when ch.ch_phase <> Chan_established -> Error Ecall.Bad_state
  | r -> r

(* The guest's send: the SM writes the caller's own directional half on
   its behalf, payload and length before the seq bump that publishes
   them. (A guest may equally store into its mapped half directly — the
   SM's consume-side shadow only ever trusts what Check-after-Load
   admits.) Returns the bytes sent. *)
let guest_send t cvm ~chan ~src ~len =
  if len < 1 || len > Layout.chan_max_msg then Error Ecall.Invalid_param
  else
    let* ch = guest_channel t cvm chan in
    let* payload =
      Option.to_result ~none:Ecall.Invalid_param (read_guest t cvm ~gpa:src len)
    in
    let bus = t.machine.Machine.bus in
    let base = chan_dir_base ch ~from_a:(ch.ch_a = cvm.Cvm.id) in
    let seq = Bus.read bus base 8 in
    Bus.write_bytes bus (Int64.add base (Int64.of_int Layout.chan_hdr_size))
      payload;
    Bus.write bus (Int64.add base 8L) 8 (Int64.of_int len);
    Bus.write bus base 8 (Int64.add seq 1L);
    (* Bulk payload copy: a plain M-mode word copy, not the per-register
       validated transfer — only the header goes through
       Check-after-Load. *)
    charge t "sm_chan"
      (t.cost.Cost.ecall_roundtrip + Cost.word_copy t.cost len);
    Ok (Int64.of_int len)

(* The guest's receive into [dst], at most [max] bytes: the
   peer-writable half goes through Check-after-Load against the SM's
   delivery shadow; a rejected header is a strike against the peer, and
   the strike budget degrades the channel — never the consuming CVM.
   Returns the bytes delivered, 0 when nothing is pending. *)
let guest_recv t cvm ~chan ~dst ~max =
  let* ch = guest_channel t cvm chan in
  let consumer_is_b = ch.ch_b = cvm.Cvm.id in
  let from_a = consumer_is_b in
  let shadow = if consumer_is_b then ch.ch_seq_ab else ch.ch_seq_ba in
  charge t "sm_chan" t.cost.Cost.ecall_roundtrip;
  match chan_check_dir t ch ~from_a ~shadow with
  | Chan_idle -> Ok 0L
  | Chan_bad verdict ->
      chan_strike t ch ~victim:cvm.Cvm.id verdict;
      Error Ecall.Denied
  | Chan_msg (seq, len) ->
      if Int64.of_int len > max then Error Ecall.Invalid_param
      else begin
        let payload =
          Bus.read_bytes t.machine.Machine.bus
            (Int64.add (chan_dir_base ch ~from_a)
               (Int64.of_int Layout.chan_hdr_size))
            len
        in
        if not (write_guest t cvm ~gpa:dst payload) then
          Error Ecall.Invalid_param
        else begin
          if consumer_is_b then ch.ch_seq_ab <- seq else ch.ch_seq_ba <- seq;
          charge t "sm_chan" (Cost.word_copy t.cost len);
          Ok (Int64.of_int len)
        end
      end

type chan_info = {
  ci_id : int;
  ci_a : int;
  ci_b : int;
  ci_phase : string;
  ci_gpa : int64;
  ci_page : int64 option;
  ci_strikes : int;
  ci_reason : string option;
}

let chan_phase_to_string = function
  | Chan_offered -> "offered"
  | Chan_established -> "established"
  | Chan_revoked -> "revoked"
  | Chan_degraded -> "degraded"

let chan_info t ~chan =
  Option.map
    (fun ch ->
      {
        ci_id = ch.ch_id;
        ci_a = ch.ch_a;
        ci_b = ch.ch_b;
        ci_phase = chan_phase_to_string ch.ch_phase;
        ci_gpa = ch.ch_gpa;
        ci_page = ch.ch_page;
        ci_strikes = ch.ch_strikes;
        ci_reason = ch.ch_reason;
      })
    (find_channel t chan)

let chan_list t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.channels []
  |> List.sort compare
  |> List.filter_map (fun id -> chan_info t ~chan:id)

(* Recovery replay of a pending channel record; see [Sm_recover]. *)
let replay t ~note ~fwd ~back (r : Journal.record) =
  match r.Journal.op with
  | Journal.Op_chan_grant { chan; a = _; b = _; block_base } -> (
      incr back;
      (* Channel ids double as slot indices: never mint this one
         again. *)
      if t.next_chan_id <= chan then t.next_chan_id <- chan + 1;
      match find_channel t chan with
      | Some ch ->
          note
            (Printf.sprintf "chan-grant #%d: rolled back torn offer %d"
               r.Journal.seq chan);
          chan_teardown t ch ~phase:Chan_revoked ~reason:"offer rolled back"
      | None ->
          if reclaim_orphan_block t block_base then
            note
              (Printf.sprintf
                 "chan-grant #%d: reclaimed orphaned ring block 0x%Lx"
                 r.Journal.seq block_base))
  | Journal.Op_chan_accept { chan } -> (
      incr back;
      match find_channel t chan with
      | Some ch when chan_live ch ->
          (* Roll back to the offered state: the accepting side never
             learned the establishment happened, so whichever of the two
             map installs landed is removed again. TLBs are cold after
             the reboot — no shootdown is owed. *)
          Option.iter (unmap_slot t ch) ch.ch_page;
          ch.ch_phase <- Chan_offered;
          ch.ch_seq_ab <- 0L;
          ch.ch_seq_ba <- 0L;
          ch.ch_strikes <- 0;
          note
            (Printf.sprintf
               "chan-accept #%d: rolled channel %d back to offered"
               r.Journal.seq chan)
      | _ -> ())
  | Journal.Op_chan_revoke { chan; degraded } -> (
      incr fwd;
      match find_channel t chan with
      | Some ch when chan_live ch ->
          let phase = if degraded then Chan_degraded else Chan_revoked in
          chan_teardown t ch ~phase
            ~reason:
              (if degraded then "degraded (recovery replay)"
               else "revoked (recovery replay)");
          note
            (Printf.sprintf "chan-revoke #%d: finished tearing down %d"
               r.Journal.seq chan)
      | _ -> ())
  | _ -> ()

(* Audit clause 11, channel ownership. A live channel's ring page lies
   inside the secure pool (so clause 1's PMP closure keeps it
   host-unreachable), belongs to no CVM in [page_owner], sits in no free
   block, and is mapped at the slot GPA by exactly its two endpoints iff
   the channel is established — by nobody while merely offered. No live
   channel may keep a destroyed or quarantined endpoint reachable, and a
   dead channel holds no page at all. *)
let audit_channels t f ~free_bases =
  let blk = Secmem.block_size t.sm in
  Hashtbl.iter
    (fun _ ch ->
      match (ch.ch_phase, ch.ch_page) with
      | (Chan_offered | Chan_established), None ->
          fail f "live channel %d holds no ring page" ch.ch_id
      | (Chan_offered | Chan_established), Some pa ->
          check f (Secmem.contains t.sm pa)
            "channel %d ring page 0x%Lx lies outside the secure pool"
            ch.ch_id pa;
          check f
            (not (Hashtbl.mem t.page_owner pa))
            "channel %d ring page 0x%Lx is also CVM-owned" ch.ch_id pa;
          let base = Int64.mul (Int64.div pa blk) blk in
          check f
            (not (Hashtbl.mem free_bases base))
            "channel %d ring page 0x%Lx lies in free block 0x%Lx" ch.ch_id
            pa base;
          List.iter
            (fun id ->
              tick f;
              match find_cvm t id with
              | None -> fail f "channel %d endpoint CVM %d missing" ch.ch_id id
              | Some c -> (
                  match c.Cvm.state with
                  | Cvm.Destroyed | Cvm.Quarantined ->
                      fail f "live channel %d endpoint CVM %d is %s" ch.ch_id
                        id
                        (Cvm.state_to_string c.Cvm.state)
                  | _ -> ()))
            [ ch.ch_a; ch.ch_b ];
          let maps id =
            match find_cvm t id with
            | Some c when c.Cvm.state <> Cvm.Destroyed ->
                Spt.lookup c.Cvm.spt ~gpa:ch.ch_gpa = Some pa
            | _ -> false
          in
          if ch.ch_phase = Chan_established then
            check f
              (maps ch.ch_a && maps ch.ch_b)
              "established channel %d is not mapped by both endpoints"
              ch.ch_id
          else
            check f
              ((not (maps ch.ch_a)) && not (maps ch.ch_b))
              "offered channel %d ring page 0x%Lx is already mapped"
              ch.ch_id pa
      | (Chan_revoked | Chan_degraded), Some pa ->
          fail f "dead channel %d still holds ring page 0x%Lx" ch.ch_id pa
      | (Chan_revoked | Chan_degraded), None -> tick f)
    t.channels
