(* Migration images and the crash-safe 2PC sessions: the session table is
   written only here, including its journal replay and audit clause. *)

open Riscv
open Sm_state

let vcpu_to_image (sv : Vcpu.secure) =
  {
    Migrate.vi_regs = Array.copy sv.Vcpu.regs;
    vi_pc = sv.Vcpu.pc;
    vi_csrs =
      [|
        sv.Vcpu.vsstatus; sv.Vcpu.vstvec; sv.Vcpu.vsscratch; sv.Vcpu.vsepc;
        sv.Vcpu.vscause; sv.Vcpu.vstval; sv.Vcpu.vsatp; sv.Vcpu.hvip;
      |];
  }

let image_to_vcpu (vi : Migrate.vcpu_image) (sv : Vcpu.secure) =
  Array.blit vi.Migrate.vi_regs 0 sv.Vcpu.regs 0 32;
  sv.Vcpu.pc <- vi.Migrate.vi_pc;
  (match vi.Migrate.vi_csrs with
  | [| a; b; c; d; e; f; g; h |] ->
      sv.Vcpu.vsstatus <- a;
      sv.Vcpu.vstvec <- b;
      sv.Vcpu.vsscratch <- c;
      sv.Vcpu.vsepc <- d;
      sv.Vcpu.vscause <- e;
      sv.Vcpu.vstval <- f;
      sv.Vcpu.vsatp <- g;
      sv.Vcpu.hvip <- h
  | _ -> invalid_arg "image_to_vcpu: bad CSR image")

(* Snapshot a CVM into a migration image: every secure vCPU, the sealed
   measurement, and all mapped private pages. The caller has already
   checked the state. *)
let snapshot_image t cvm =
  let bus = t.machine.Machine.bus in
  let pages =
    Spt.fold_private cvm.Cvm.spt
      (fun ~gpa ~pa acc -> (gpa, Bus.read_bytes bus pa 4096) :: acc)
      []
  in
  (* Per-page crypto work dominates the export path. *)
  charge t "sm_migrate" (List.length pages * t.cost.Cost.page_scrub);
  {
    Migrate.im_vcpus = Array.to_list (Array.map vcpu_to_image cvm.Cvm.vcpus);
    im_measurement = Option.value ~default:"" cvm.Cvm.measurement;
    im_pages = List.rev pages;
  }

(* Fresh, unpredictable-to-the-host export nonce from the SM's DRBG. *)
let fresh_export_nonce t =
  Printf.sprintf "%Ld:%Ld" (next_random t) (next_random t)

(* Rebuild a CVM from a verified image into fresh secure memory, landing
   it in [Migrating_in] (the 2PC prepared state). Rolls the half-built
   CVM back on any failure. The prepare record [jr] learns the id (with
   a checkpoint) the moment the empty CVM exists, so a crash
   mid-restore can still find and scrub the half-built instance. *)
let build_cvm_from_image t ~jr im =
  let nvcpus = List.length im.Migrate.im_vcpus in
  let* id = Sm_cvm.create_cvm t ~nvcpus ~entry_pc:0L in
  (match jr.Journal.op with
  | Journal.Op_mig_in_prepare p -> p.built <- Some id
  | _ -> ());
  Journal.checkpoint t.journal jr "built";
  let cvm = Option.get (find_cvm t id) in
  let bus = t.machine.Machine.bus in
  let cache = Cvm.cache cvm 0 in
  let rec restore = function
    | [] -> Ok ()
    | (gpa, data) :: rest -> begin
        match provide_private_page t cvm cache ~gpa ~after_expand:false with
        | Ok (pa, _) ->
            Bus.write_bytes bus pa data;
            restore rest
        | Error `Need_expand ->
            (* roll back the half-built CVM *)
            ignore (Sm_cvm.destroy_cvm_impl t ~cvm:id);
            Error Ecall.No_memory
        | Error (`Map_error _) ->
            ignore (Sm_cvm.destroy_cvm_impl t ~cvm:id);
            Error Ecall.Invalid_param
      end
  in
  let* () = restore im.Migrate.im_pages in
  List.iteri
    (fun i vi -> image_to_vcpu vi (Cvm.vcpu cvm i))
    im.Migrate.im_vcpus;
  seal_all_vcpus t cvm;
  cvm.Cvm.measurement <-
    (if im.Migrate.im_measurement = "" then None
     else Some im.Migrate.im_measurement);
  cvm.Cvm.measurement_ctx <- None;
  cvm.Cvm.state <- Cvm.Migrating_in;
  charge t "sm_migrate"
    (List.length im.Migrate.im_pages * t.cost.Cost.page_scrub);
  Ok id

(* ---------- crash-safe migration sessions (2PC handoff) ---------- *)

(* The session table is the protocol's durable truth: courier endpoints
   (Migrate_proto) may crash and lose every timer and buffer, but the
   decision state — who owns the guest — lives here and only moves
   through the entry points below. *)

let session_key role session =
  (match role with Mig_out -> "out:" | Mig_in -> "in:") ^ session

let find_session t role session =
  Hashtbl.find_opt t.sessions (session_key role session)

(* Session ids arrive from the untrusted host: bound and sanity-check
   them before they become hash keys and trace labels. *)
let valid_session_id s =
  let n = String.length s in
  n > 0 && n <= 64
  && String.for_all (fun c -> Char.code c >= 0x21 && Char.code c <= 0x7e) s

(* Public, non-secret fingerprint of a sealed blob: lets both monitors
   agree they are talking about the same bytes without trusting the
   courier. Keyed hash only to reuse the primitive; the key is public. *)
let blob_tag blob = Attest.hmac_sha256 ~key:"zion-migrate-blob-tag" blob

let default_retry_budget = 12

let new_session role ~cvm ~epoch ~nonce ~tag ~budget =
  {
    mg_role = role;
    mg_phase = Mig_active;
    mg_cvm = Some cvm;
    mg_epoch = epoch;
    mg_nonce = nonce;
    mg_blob_tag = tag;
    mg_stalls = 0;
    mg_budget = budget;
  }

let migrate_out_begin_impl t ~cvm:id ~session ~budget =
  if not (valid_session_id session) || budget <= 0 then
    Error Ecall.Invalid_param
  else
    match (found t.cvms id, find_session t Mig_out session) with
    | Error e, _ -> Error e
    | Ok cvm, Some s -> begin
        (* Recovery re-begin: only the incumbent session may restart, and
           only while the handoff is still undecided. The nonce is reused
           so the re-export is byte-identical — chunks the destination
           already holds stay valid. *)
        match s.mg_phase with
        | Mig_active
          when s.mg_cvm = Some id && cvm.Cvm.state = Cvm.Migrating_out ->
            s.mg_epoch <- s.mg_epoch + 1;
            s.mg_stalls <- 0;
            let blob = Migrate.seal ~nonce:s.mg_nonce (snapshot_image t cvm) in
            s.mg_blob_tag <- blob_tag blob;
            Metrics.Registry.inc t.registry "migrate.out_rebegin";
            Ok (blob, s.mg_epoch)
        | _ -> Error Ecall.Already_exists
      end
    | Ok cvm, None -> begin
        match cvm.Cvm.state with
        | Cvm.Quarantined -> Error Ecall.Quarantined
        | Cvm.Created | Cvm.Destroyed | Cvm.Running
        | Cvm.Migrating_out | Cvm.Migrating_in ->
            Error Ecall.Bad_state
        | Cvm.Runnable | Cvm.Suspended ->
            let nonce = fresh_export_nonce t in
            let blob = Migrate.seal ~nonce (snapshot_image t cvm) in
            let jr =
              Journal.append t.journal
                (Journal.Op_mig_out_begin { session; cvm = id })
            in
            cvm.Cvm.state <- Cvm.Migrating_out;
            (* Lifecycle transition: every attestation report issued
               before this lock is now stale — channel offers bound to
               the old epoch can no longer be accepted. *)
            cvm.Cvm.epoch <- cvm.Cvm.epoch + 1;
            Journal.checkpoint t.journal jr "locked";
            Hashtbl.replace t.sessions
              (session_key Mig_out session)
              (new_session Mig_out ~cvm:id ~epoch:1 ~nonce
                 ~tag:(blob_tag blob) ~budget);
            Metrics.Registry.inc t.registry "migrate.out_begin";
            Journal.mark_done t.journal jr;
            Ok (blob, 1)
      end

let migrate_out_begin ?(budget = default_retry_budget) t ~cvm ~session =
  host_call t "migrate_out_begin" ~cvm (fun () ->
      migrate_out_begin_impl t ~cvm ~session ~budget)

let migrate_out_abort t ~session =
  host_call t "migrate_out_abort" (fun () ->
      match found t.sessions (session_key Mig_out session) with
      | Error e -> Error e
      (* past the commit point the handoff is irrevocable *)
      | Ok { mg_phase = Mig_committed; _ } -> Error Ecall.Bad_state
      | Ok { mg_phase = Mig_aborted; _ } -> Ok ()
      | Ok s ->
          let jr =
            Journal.append t.journal (Journal.Op_mig_out_abort { session })
          in
          (match Option.bind s.mg_cvm (find_cvm t) with
          | Some cvm when cvm.Cvm.state = Cvm.Migrating_out ->
              (* reactivate: the source stays the one owner — but in a
                 fresh epoch, so reports minted while the migration was
                 pending do not outlive it *)
              cvm.Cvm.state <- Cvm.Suspended;
              cvm.Cvm.epoch <- cvm.Cvm.epoch + 1
          | _ -> ());
          Journal.checkpoint t.journal jr "released";
          s.mg_phase <- Mig_aborted;
          Metrics.Registry.inc t.registry "migrate.out_abort";
          Journal.mark_done t.journal jr;
          Ok ())

let migrate_out_commit t ~session =
  host_call t "migrate_out_commit" (fun () ->
      match found t.sessions (session_key Mig_out session) with
      | Error e -> Error e
      | Ok { mg_phase = Mig_aborted; _ } -> Error Ecall.Bad_state
      | Ok { mg_phase = Mig_committed; _ } ->
          Ok () (* idempotent: recovery retries land here *)
      | Ok { mg_cvm = None; _ } -> Error Ecall.Bad_state
      | Ok ({ mg_cvm = Some id; _ } as s) ->
          (* The commit point of the whole handoff: once the intent lands
             the decision is irrevocable — recovery rolls it forward even
             if the crash struck before the phase flip below. Flip the
             session first so the destroy sweep leaves it Committed, then
             scrub the source instance. *)
          let jr =
            Journal.append t.journal (Journal.Op_mig_out_commit { session })
          in
          s.mg_phase <- Mig_committed;
          Journal.checkpoint t.journal jr "committed";
          ignore (Sm_cvm.destroy_cvm_impl t ~cvm:id);
          Metrics.Registry.inc t.registry "migrate.out_commit";
          Journal.mark_done t.journal jr;
          Ok ())

(* Whether an in-session other than [session] already took a blob with
   this tag, in any phase. *)
let blob_taken t ~session tag =
  let key = session_key Mig_in session in
  Hashtbl.fold
    (fun k s taken ->
      taken || (k <> key && s.mg_role = Mig_in && s.mg_blob_tag = tag))
    t.sessions false

let migrate_in_prepare t ~session ~epoch blob =
  host_call t "migrate_in_prepare" (fun () ->
      if not (valid_session_id session) || epoch <= 0 then
        Error Ecall.Invalid_param
      else
        match find_session t Mig_in session with
        (* Session ids are single-use: a committed (or aborted) session
           never accepts another blob, which kills replay-of-committed-
           session attacks outright. *)
        | Some s when s.mg_phase <> Mig_active -> Error Ecall.Denied
        | Some s when epoch < s.mg_epoch -> Error Ecall.Bad_state
        | maybe -> begin
            let tag = blob_tag blob in
            match Migrate.unseal blob with
            | Error _ -> Error Ecall.Denied
            (* Blobs are single-use too: the same bytes replayed under a
               fresh session id would land a second live copy. *)
            | Ok _ when blob_taken t ~session tag -> Error Ecall.Denied
            | Ok im -> begin
                let jr =
                  Journal.append t.journal
                    (Journal.Op_mig_in_prepare
                       { session; epoch; built = None })
                in
                let finish r =
                  Journal.mark_done t.journal jr;
                  r
                in
                (* A newer epoch replaces any earlier prepared instance
                   of the same session. *)
                (match maybe with
                | Some ({ mg_cvm = Some old; _ } as s) ->
                    ignore (Sm_cvm.destroy_cvm_impl t ~cvm:old);
                    (* the destroy sweep folded the session to Aborted;
                       it is being re-prepared, not dying *)
                    s.mg_phase <- Mig_active;
                    s.mg_cvm <- None
                | _ -> ());
                match build_cvm_from_image t ~jr im with
                | Error e -> finish (Error e)
                | Ok id ->
                    (match maybe with
                    | Some s ->
                        s.mg_cvm <- Some id;
                        s.mg_epoch <- epoch;
                        s.mg_blob_tag <- tag
                    | None ->
                        Hashtbl.replace t.sessions
                          (session_key Mig_in session)
                          (new_session Mig_in ~cvm:id ~epoch ~nonce:"" ~tag
                             ~budget:0));
                    Metrics.Registry.inc t.registry "migrate.in_prepare";
                    finish (Ok id)
              end
          end)

let migrate_in_commit t ~session =
  host_call t "migrate_in_commit" (fun () ->
      match found t.sessions (session_key Mig_in session) with
      | Error e -> Error e
      | Ok { mg_phase = Mig_aborted; _ } | Ok { mg_cvm = None; _ } ->
          Error Ecall.Bad_state
      | Ok { mg_phase = Mig_committed; mg_cvm = Some id; _ } ->
          Ok id (* idempotent *)
      | Ok ({ mg_cvm = Some id; _ } as s) -> begin
          match find_cvm t id with
          | Some cvm when cvm.Cvm.state = Cvm.Migrating_in ->
              (* Two durable flips; a crash between them would leave a
                 Suspended CVM pinned by an Active session (the §8 audit
                 violation), so both sides of the gap are journal points
                 recovery closes. *)
              let jr =
                Journal.append t.journal (Journal.Op_mig_in_commit { session })
              in
              cvm.Cvm.state <- Cvm.Suspended;
              Journal.checkpoint t.journal jr "activated";
              s.mg_phase <- Mig_committed;
              Metrics.Registry.inc t.registry "migrate.in_commit";
              Journal.mark_done t.journal jr;
              Ok id
          | _ -> Error Ecall.Bad_state
        end)

let migrate_in_abort t ~session =
  host_call t "migrate_in_abort" (fun () ->
      match found t.sessions (session_key Mig_in session) with
      | Error e -> Error e
      (* a destination that voted Prepared and then committed can never
         be talked back out of it *)
      | Ok { mg_phase = Mig_committed; _ } -> Error Ecall.Bad_state
      | Ok { mg_phase = Mig_aborted; _ } -> Ok ()
      | Ok s ->
          let jr =
            Journal.append t.journal (Journal.Op_mig_in_abort { session })
          in
          Option.iter
            (fun id -> ignore (Sm_cvm.destroy_cvm_impl t ~cvm:id))
            s.mg_cvm;
          Journal.checkpoint t.journal jr "scrubbed";
          s.mg_phase <- Mig_aborted;
          s.mg_cvm <- None;
          Metrics.Registry.inc t.registry "migrate.in_abort";
          Journal.mark_done t.journal jr;
          Ok ())

type migration_info = {
  mi_role : [ `Out | `In ];
  mi_phase : [ `Active | `Committed | `Aborted ];
  mi_cvm : int option;
  mi_epoch : int;
  mi_blob_tag : string;
  mi_stalls : int;
  mi_budget : int;
}

let migrate_session t ~role ~session =
  let r = match role with `Out -> Mig_out | `In -> Mig_in in
  Option.map
    (fun s ->
      {
        mi_role = role;
        mi_phase =
          (match s.mg_phase with
          | Mig_active -> `Active
          | Mig_committed -> `Committed
          | Mig_aborted -> `Aborted);
        mi_cvm = s.mg_cvm;
        mi_epoch = s.mg_epoch;
        mi_blob_tag = s.mg_blob_tag;
        mi_stalls = s.mg_stalls;
        mi_budget = s.mg_budget;
      })
    (find_session t r session)

let migrate_note_stalls t ~session n =
  host_call t "migrate_note_stalls" (fun () ->
      match found t.sessions (session_key Mig_out session) with
      | Error e -> Error e
      (* The budget declared at [migrate_out_begin] bounds what an honest
         endpoint can ever report — it aborts rather than retry past it.
         Reject anything outside [0, budget] so a hostile host cannot
         frame an active session as over-budget and dirty the audit with
         SM-recorded garbage. *)
      | Ok s when n < 0 || n > s.mg_budget -> Error Ecall.Invalid_param
      | Ok s ->
          if s.mg_phase = Mig_active then s.mg_stalls <- n;
          Ok ())

(* Destroy's fold, installed as [orphan_sessions] by [Monitor.create]. *)
let orphan_sessions t id =
  Hashtbl.iter
    (fun _ s ->
      if s.mg_phase = Mig_active && s.mg_cvm = Some id then
        s.mg_phase <- Mig_aborted)
    t.sessions

let pinned_by_active_out_session t id =
  Hashtbl.fold
    (fun _ s acc ->
      acc
      || (s.mg_role = Mig_out && s.mg_phase = Mig_active
         && s.mg_cvm = Some id))
    t.sessions false

let destroy_unless_destroyed ~record t id =
  match find_cvm t id with
  | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
      Sm_cvm.destroy_replay ~record t cvm
  | _ -> ()

(* Recovery replay of a pending session record; see [Sm_recover]. *)
let replay t ~note ~fwd ~back (r : Journal.record) =
  let seq = r.Journal.seq in
  match r.Journal.op with
  | Journal.Op_mig_out_begin { session; cvm = id } -> (
      match find_session t Mig_out session with
      | Some s ->
          incr fwd;
          (match (s.mg_phase, find_cvm t id) with
          | Mig_active, Some cvm
            when cvm.Cvm.state = Cvm.Suspended
                 || cvm.Cvm.state = Cvm.Runnable ->
              cvm.Cvm.state <- Cvm.Migrating_out;
              note (Printf.sprintf "out-begin #%d: re-locked CVM %d" seq id)
          | _ -> ())
      | None -> (
          incr back;
          (* The lock landed but the session record did not: release the
             CVM — the host never learned a session existed. *)
          match find_cvm t id with
          | Some cvm
            when cvm.Cvm.state = Cvm.Migrating_out
                 && not (pinned_by_active_out_session t id) ->
              cvm.Cvm.state <- Cvm.Suspended;
              note (Printf.sprintf "out-begin #%d: released CVM %d" seq id)
          | _ -> ()))
  | Journal.Op_mig_out_abort { session } -> (
      incr fwd;
      match find_session t Mig_out session with
      | Some s when s.mg_phase <> Mig_committed ->
          (match Option.bind s.mg_cvm (find_cvm t) with
          | Some cvm when cvm.Cvm.state = Cvm.Migrating_out ->
              cvm.Cvm.state <- Cvm.Suspended
          | _ -> ());
          s.mg_phase <- Mig_aborted;
          note (Printf.sprintf "out-abort #%d: session %s aborted" seq session)
      | _ -> ())
  | Journal.Op_mig_out_commit { session } -> (
      incr fwd;
      match find_session t Mig_out session with
      | Some s when s.mg_phase <> Mig_aborted ->
          s.mg_phase <- Mig_committed;
          Journal.checkpoint t.journal r "committed";
          Option.iter (destroy_unless_destroyed ~record:r t) s.mg_cvm;
          note
            (Printf.sprintf
               "out-commit #%d: session %s committed, source scrubbed" seq
               session)
      | _ -> ())
  | Journal.Op_mig_in_prepare p -> (
      incr back;
      (match Option.bind p.built (find_cvm t) with
      | Some cvm when cvm.Cvm.state <> Cvm.Destroyed ->
          note
            (Printf.sprintf "in-prepare #%d: rolled back half-restored CVM %d"
               seq cvm.Cvm.id);
          Sm_cvm.destroy_replay ~record:r t cvm
      | _ -> ());
      match find_session t Mig_in p.session with
      | Some s when s.mg_phase = Mig_active -> (
          (* the session may still point at an instance that no longer
             exists (re-prepare destroyed the old one mid-swap) *)
          match s.mg_cvm with
          | Some id
            when (match find_cvm t id with
                 | Some c -> c.Cvm.state = Cvm.Destroyed
                 | None -> true) ->
              s.mg_cvm <- None
          | _ -> ())
      | _ -> ())
  | Journal.Op_mig_in_commit { session } -> (
      incr fwd;
      match find_session t Mig_in session with
      | Some ({ mg_phase = Mig_active; mg_cvm = Some id; _ } as s) -> (
          match find_cvm t id with
          | Some cvm when cvm.Cvm.state = Cvm.Migrating_in ->
              cvm.Cvm.state <- Cvm.Suspended;
              Journal.checkpoint t.journal r "activated";
              s.mg_phase <- Mig_committed;
              note (Printf.sprintf "in-commit #%d: CVM %d activated" seq id)
          | Some cvm when cvm.Cvm.state = Cvm.Suspended ->
              s.mg_phase <- Mig_committed;
              note
                (Printf.sprintf "in-commit #%d: session %s marked committed"
                   seq session)
          | _ -> ())
      | _ -> ())
  | Journal.Op_mig_in_abort { session } -> (
      incr fwd;
      match find_session t Mig_in session with
      | Some s when s.mg_phase <> Mig_committed ->
          Option.iter (destroy_unless_destroyed ~record:r t) s.mg_cvm;
          s.mg_phase <- Mig_aborted;
          s.mg_cvm <- None;
          note (Printf.sprintf "in-abort #%d: session %s aborted" seq session)
      | _ -> ())
  | _ -> ()

(* Audit clause 8, migration-session ownership. An active session pins
   its CVM in the matching Migrating state; a committed out-session left
   the source scrubbed; a committed in-session activated its CVM;
   aborted sessions stranded no lock; every migrating CVM is pinned by
   exactly one active session; no source overran its retry budget. *)
let audit_sessions t f ~live =
  let mig_owner = Hashtbl.create 8 in
  Hashtbl.iter
    (fun key s ->
      let role = match s.mg_role with Mig_out -> "out" | Mig_in -> "in" in
      let state_of id = Option.map (fun c -> c.Cvm.state) (find_cvm t id) in
      (match (s.mg_phase, s.mg_cvm) with
      | Mig_active, Some id -> begin
          tick f;
          (match Hashtbl.find_opt mig_owner id with
          | Some other ->
              fail f "CVM %d pinned by migration sessions %s and %s" id other
                key
          | None -> Hashtbl.add mig_owner id key);
          let want =
            match s.mg_role with
            | Mig_out -> Cvm.Migrating_out
            | Mig_in -> Cvm.Migrating_in
          in
          match state_of id with
          | None ->
              fail f "active %s-session %s references unknown CVM %d" role
                key id
          | Some st when st <> want ->
              fail f "active %s-session %s: CVM %d is %s, expected %s" role
                key id
                (Cvm.state_to_string st)
                (Cvm.state_to_string want)
          | Some _ -> ()
        end
      | Mig_active, None ->
          tick f;
          if s.mg_role = Mig_out then
            fail f "active out-session %s has no CVM" key
      | Mig_committed, cvm_opt -> begin
          tick f;
          match (s.mg_role, cvm_opt) with
          | Mig_out, Some id -> begin
              match state_of id with
              | Some st when st <> Cvm.Destroyed ->
                  fail f "committed out-session %s left source CVM %d %s" key
                    id (Cvm.state_to_string st)
              | _ -> ()
            end
          | Mig_out, None -> ()
          | Mig_in, Some id -> begin
              match state_of id with
              | Some Cvm.Migrating_in ->
                  fail f "committed in-session %s: CVM %d still prepared" key
                    id
              | None -> fail f "committed in-session %s: CVM %d missing" key id
              | Some _ -> ()
            end
          | Mig_in, None -> fail f "committed in-session %s has no CVM" key
        end
      | Mig_aborted, Some id -> begin
          tick f;
          match (s.mg_role, state_of id) with
          | Mig_out, Some Cvm.Migrating_out ->
              fail f "aborted out-session %s left CVM %d locked" key id
          | Mig_in, Some st when st <> Cvm.Destroyed ->
              fail f "aborted in-session %s left CVM %d %s" key id
                (Cvm.state_to_string st)
          | _ -> ()
        end
      | Mig_aborted, None -> ());
      if s.mg_role = Mig_out && s.mg_phase = Mig_active then begin
        tick f;
        if s.mg_stalls > s.mg_budget then
          fail f "out-session %s exceeded its retry budget (%d > %d)" key
            s.mg_stalls s.mg_budget
      end)
    t.sessions;
  List.iter
    (fun cvm ->
      match cvm.Cvm.state with
      | Cvm.Migrating_out | Cvm.Migrating_in ->
          tick f;
          if not (Hashtbl.mem mig_owner cvm.Cvm.id) then
            fail f "CVM %d is %s with no active migration session" cvm.Cvm.id
              (Cvm.state_to_string cvm.Cvm.state)
      | _ -> ())
    live
