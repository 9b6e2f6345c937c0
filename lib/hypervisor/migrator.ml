(* Drives one crash-safe migration between two monitors over a pair of
   lossy channels, with optional crash injection at a chosen protocol
   step on either end. This is the harness half of the protocol: the
   endpoints (Zion.Migrate_proto) never see the channels or the crash
   schedule, exactly as a real courier process would be outside them. *)

module Mp = Zion.Migrate_proto

type side = Source | Dest

let side_to_string = function Source -> "source" | Dest -> "dest"

type crash = { at : int; side : side }

type outcome =
  | Committed of int  (* destination CVM id *)
  | Aborted of string

type stats = {
  ticks : int;
  src_events : int;
  dst_events : int;
  chunks_sent : int;
  retransmits : int;
  chunks_recv : int;
  dup_chunks : int;
  rejected : int;
  crashes : int;
  recoveries : int;
  fwd : Channel.stats;  (* source -> dest *)
  rev : Channel.stats;  (* dest -> source *)
}

let pp_stats ppf s =
  Format.fprintf ppf
    "ticks %d; src events %d, dst events %d; chunks sent %d (retx %d), recv \
     %d (dup %d), rejected %d; crashes %d, recoveries %d@\n\
     fwd: %a@\nrev: %a"
    s.ticks s.src_events s.dst_events s.chunks_sent s.retransmits
    s.chunks_recv s.dup_chunks s.rejected s.crashes s.recoveries
    Channel.pp_stats s.fwd Channel.pp_stats s.rev

(* Ground truth for the exactly-one-owner invariant, read from the
   monitors (never from the endpoints): does each side hold a usable —
   current or future-runnable — instance of the guest? *)
let owners ~src ~dst ~cvm ~session =
  let source_owns =
    match Zion.Monitor.cvm_state src ~cvm with
    | Some
        ( Zion.Cvm.Created | Zion.Cvm.Runnable | Zion.Cvm.Running
        | Zion.Cvm.Suspended | Zion.Cvm.Migrating_out ) ->
        (* Migrating_out counts: the lock is resumable via abort *)
        true
    | Some (Zion.Cvm.Migrating_in | Zion.Cvm.Quarantined | Zion.Cvm.Destroyed)
    | None ->
        false
  in
  let dest_owns =
    match Zion.Monitor.migrate_session dst ~role:`In ~session with
    | Some { Zion.Monitor.mi_phase = `Committed; mi_cvm = Some id; _ } -> (
        match Zion.Monitor.cvm_state dst ~cvm:id with
        | Some
            ( Zion.Cvm.Runnable | Zion.Cvm.Running | Zion.Cvm.Suspended
            | Zion.Cvm.Migrating_out ) ->
            true
        | _ -> false)
    | _ -> false
  in
  (source_owns, dest_owns)

(* The sweep's stronger post-condition: besides exactly one owner, the
   losing side must hold nothing live for this migration. *)
let handoff_clean ~src ~dst ~cvm ~session =
  match owners ~src ~dst ~cvm ~session with
  | true, true -> Error "both sides own the guest"
  | false, false -> Error "neither side owns the guest"
  | true, false -> (
      (* aborted handoff: any prepared destination instance must be gone *)
      match Zion.Monitor.migrate_session dst ~role:`In ~session with
      | Some { Zion.Monitor.mi_cvm = Some id; mi_phase; _ }
        when mi_phase <> `Committed -> (
          match Zion.Monitor.cvm_state dst ~cvm:id with
          | Some Zion.Cvm.Destroyed | None -> Ok `Source
          | Some st ->
              Error
                (Printf.sprintf "source owns but dest CVM %d is %s" id
                   (Zion.Cvm.state_to_string st)))
      | _ -> Ok `Source)
  | false, true -> (
      (* committed handoff: the source instance must be scrubbed *)
      match Zion.Monitor.cvm_state src ~cvm with
      | Some Zion.Cvm.Destroyed | None -> Ok `Dest
      | Some st ->
          Error
            (Printf.sprintf "dest owns but source CVM %d is %s" cvm
               (Zion.Cvm.state_to_string st)))

(* Courier timing of the run, in ticks. *)
let recover_after = 5 (* a crashed endpoint's downtime *)
let max_ticks = 20_000 (* give up: the protocol did not terminate *)
let grace = 200 (* let terminal messages drain after the source ends *)

(* One end of the run. A crash loses the endpoint and every counter in
   it, so [gone] keeps what its crashed incarnations had counted
   (protocol events, then the endpoint's stats triple); the run's
   figures add the live endpoint's [count] to it. *)
type 'e endpoint = {
  who : side;
  mutable ep : 'e option;  (* [None] while crashed *)
  mutable down_until : int;
  mutable gone : int * (int * int * int);
  count : 'e -> int * (int * int * int);
}

let endpoint who ep count =
  { who; ep = Some ep; down_until = 0; gone = (0, (0, 0, 0)); count }

let counts e =
  match e.ep with
  | None -> e.gone
  | Some ep ->
      let n, (a, b, c) = e.gone and n', (a', b', c') = e.count ep in
      (n + n', (a + a', b + b', c + c'))

let run ?(faults = Channel.no_faults) ?(seed = 1) ?crash ~src ~dst ~cvm
    ~session () =
  match Mp.source_start src ~cvm ~session with
  | Error e -> Error ("source_start: " ^ Zion.Ecall.error_to_string e)
  | Ok s0 ->
      let fwd = Channel.create ~faults ~seed () in
      let rev = Channel.create ~faults ~seed:(seed + 0x5eed) () in
      let source =
        endpoint Source s0 (fun s -> (Mp.source_events s, Mp.source_stats s))
      in
      let dest =
        endpoint Dest (Mp.dest_create dst ~session) (fun d ->
            (Mp.dest_events d, Mp.dest_stats d))
      in
      let crashes = ref 0 and recoveries = ref 0 in
      let crash_pending = ref crash in
      (* Send a live endpoint's output, unless the pending crash strikes
         it now: the crash swallows the step's unsent messages. *)
      let deliver e ~now out chan =
        match !crash_pending with
        | Some { at; side } when side = e.who && fst (counts e) >= at ->
            incr crashes;
            crash_pending := None;
            e.gone <- counts e;
            e.ep <- None;
            e.down_until <- now + recover_after
        | _ -> List.iter (Channel.send chan) out
      in
      let recovered e ep =
        e.ep <- Some ep;
        incr recoveries
      in
      (* The outcome is read back from the monitors, the only authority. *)
      let outcome = function
        | Mp.S_aborted reason -> Ok (Aborted reason)
        | _ -> (
            match Zion.Monitor.migrate_session dst ~role:`In ~session with
            | Some { Zion.Monitor.mi_phase = `Committed; mi_cvm = Some id; _ }
              ->
                Ok (Committed id)
            | _ -> Error "source done but destination never committed")
      in
      let finished = ref None in
      let grace_left = ref grace in
      let tick = ref 0 in
      while !finished = None && !tick < max_ticks do
        incr tick;
        let now = !tick in
        let to_dest = Channel.tick fwd in
        let to_source = Channel.tick rev in
        (* destination first: purely reactive *)
        (match dest.ep with
        | Some d -> deliver dest ~now (Mp.dest_step d ~now ~inbox:to_dest) rev
        | None when now >= dest.down_until ->
            recovered dest (Mp.dest_recover dst ~session)
        | None -> ());
        match source.ep with
        | Some s -> (
            deliver source ~now (Mp.source_step s ~now ~inbox:to_source) fwd;
            match Option.map Mp.source_phase source.ep with
            | Some ((Mp.S_done | Mp.S_aborted _) as phase) ->
                if !grace_left <= 0 then finished := Some (outcome phase)
                else decr grace_left
            | _ -> ())
        | None when now >= source.down_until -> (
            match Mp.source_recover src ~session with
            | Ok s -> recovered source s
            | Error e ->
                finished :=
                  Some
                    (Error ("source_recover: " ^ Zion.Ecall.error_to_string e)))
        | None -> ()
      done;
      let src_events, (chunks_sent, retransmits, s_rejected) = counts source in
      let dst_events, (chunks_recv, dup_chunks, d_rejected) = counts dest in
      let stats =
        {
          ticks = !tick;
          src_events;
          dst_events;
          chunks_sent;
          retransmits;
          chunks_recv;
          dup_chunks;
          rejected = s_rejected + d_rejected;
          crashes = !crashes;
          recoveries = !recoveries;
          fwd = Channel.stats fwd;
          rev = Channel.stats rev;
        }
      in
      Option.value !finished
        ~default:(Error "migration did not terminate within max_ticks")
      |> Result.map (fun o -> (o, stats))
