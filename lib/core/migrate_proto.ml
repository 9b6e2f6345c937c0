(* Crash-safe migration protocol endpoints (see DESIGN.md, "Migration
   protocol & crash consistency").

   The sealed image travels as fixed-size chunks over an unreliable,
   hostile courier; each message carries the session id, the session
   epoch, and a truncated-HMAC MAC under a session-derived key. The
   endpoints here are couriers only: every decision about who owns the
   guest is made by the monitors through the [Monitor.migrate_*] entry
   points, so an endpoint crash loses timers and buffers but never the
   handoff state. *)

(* ---------- wire format ---------- *)

type status =
  | St_receiving of int
  | St_prepared of string  (* blob tag of the prepared instance *)
  | St_committed of string
  | St_aborted of string
  | St_unknown

type payload =
  | Offer of { total : int; blob_len : int; chunk_size : int; tag : string }
  | Chunk of { seq : int; data : string }
  | Query
  | Commit
  | Abort of string
  | Ack of { upto : int }
  | Status of status

type packet = {
  p_session : string;
  p_epoch : int;
  p_ctx : Metrics.Span.ctx;
  p_payload : payload;
}

let magic = "ZMP1"
let mac_len = 16
let max_session = 64
let max_chunk = 64 * 1024
let max_reason = 256

(* Per-session MAC key, derived from the platform key both monitors
   share. The courier cannot forge or splice messages across sessions. *)
let session_key session =
  Attest.hmac_sha256 ~key:Attest.platform_key ("migproto:" ^ session)

let put_u32 b v = Buffer.add_int32_le b (Int32.of_int v)
let get_u32 s off = Int32.to_int (String.get_int32_le s off) land 0xFFFF_FFFF

let kind_of_payload = function
  | Offer _ -> 0
  | Chunk _ -> 1
  | Query -> 2
  | Commit -> 3
  | Abort _ -> 4
  | Ack _ -> 5
  | Status _ -> 6

let encode { p_session; p_epoch; p_ctx; p_payload } =
  let b = Buffer.create 256 in
  Buffer.add_string b magic;
  Buffer.add_char b (Char.chr (kind_of_payload p_payload));
  put_u32 b p_epoch;
  Buffer.add_char b (Char.chr (String.length p_session));
  Buffer.add_string b p_session;
  (* Causal context rides every message; the MAC below covers the whole
     body, so the courier cannot splice a message onto another trace. *)
  put_u32 b p_ctx.Metrics.Span.trace_id;
  put_u32 b p_ctx.Metrics.Span.span_id;
  put_u32 b p_ctx.Metrics.Span.parent_id;
  (match p_payload with
  | Offer { total; blob_len; chunk_size; tag } ->
      put_u32 b total;
      put_u32 b blob_len;
      put_u32 b chunk_size;
      Buffer.add_char b (Char.chr (String.length tag land 0xff));
      Buffer.add_string b tag
  | Chunk { seq; data } ->
      put_u32 b seq;
      put_u32 b (String.length data);
      Buffer.add_string b data
  | Query | Commit -> ()
  | Abort reason ->
      put_u32 b (String.length reason);
      Buffer.add_string b reason
  | Ack { upto } -> put_u32 b upto
  | Status st -> (
      match st with
      | St_receiving upto ->
          Buffer.add_char b '\x00';
          put_u32 b upto
      | St_prepared tag ->
          Buffer.add_char b '\x01';
          Buffer.add_char b (Char.chr (String.length tag land 0xff));
          Buffer.add_string b tag
      | St_committed tag ->
          Buffer.add_char b '\x02';
          Buffer.add_char b (Char.chr (String.length tag land 0xff));
          Buffer.add_string b tag
      | St_aborted reason ->
          Buffer.add_char b '\x03';
          put_u32 b (String.length reason);
          Buffer.add_string b reason
      | St_unknown -> Buffer.add_char b '\x04'));
  let body = Buffer.contents b in
  let mac =
    String.sub (Attest.hmac_sha256 ~key:(session_key p_session) body) 0 mac_len
  in
  body ^ mac

(* Total parser over courier-corrupted bytes. *)
exception Bad of string

let decode msg =
  let fail m = raise (Bad m) in
  try
    let blen = String.length msg - mac_len in
    if blen < 10 then fail "short";
    let body = String.sub msg 0 blen in
    let pos = ref 0 in
    let need n = if !pos + n > blen then fail "truncated" in
    let byte () =
      need 1;
      let c = Char.code body.[!pos] in
      incr pos;
      c
    in
    let u32 () =
      need 4;
      let v = get_u32 body !pos in
      pos := !pos + 4;
      v
    in
    let bytes n =
      if n < 0 then fail "negative length";
      need n;
      let s = String.sub body !pos n in
      pos := !pos + n;
      s
    in
    if bytes 4 <> magic then fail "bad magic";
    let kind = byte () in
    let epoch = u32 () in
    let slen = byte () in
    if slen = 0 || slen > max_session then fail "bad session length";
    let session = bytes slen in
    let ctx =
      let trace_id = u32 () in
      let span_id = u32 () in
      let parent_id = u32 () in
      { Metrics.Span.trace_id; span_id; parent_id }
    in
    let mac = String.sub msg blen mac_len in
    let expect =
      String.sub (Attest.hmac_sha256 ~key:(session_key session) body) 0 mac_len
    in
    if not (Attest.constant_time_eq mac expect) then fail "bad mac";
    let payload =
      match kind with
      | 0 ->
          let total = u32 () in
          let blob_len = u32 () in
          let chunk_size = u32 () in
          if total <= 0 || total > 1 lsl 24 then fail "implausible total";
          if chunk_size <= 0 || chunk_size > max_chunk then
            fail "implausible chunk size";
          let taglen = byte () in
          Offer { total; blob_len; chunk_size; tag = bytes taglen }
      | 1 ->
          let seq = u32 () in
          let len = u32 () in
          if len > max_chunk then fail "oversized chunk";
          Chunk { seq; data = bytes len }
      | 2 -> Query
      | 3 -> Commit
      | 4 ->
          let len = u32 () in
          if len > max_reason then fail "oversized reason";
          Abort (bytes len)
      | 5 -> Ack { upto = u32 () }
      | 6 -> (
          match byte () with
          | 0 -> Status (St_receiving (u32 ()))
          | 1 ->
              let n = byte () in
              Status (St_prepared (bytes n))
          | 2 ->
              let n = byte () in
              Status (St_committed (bytes n))
          | 3 ->
              let len = u32 () in
              if len > max_reason then fail "oversized reason";
              Status (St_aborted (bytes len))
          | 4 -> Status St_unknown
          | _ -> fail "unknown status")
      | _ -> fail "unknown kind"
    in
    if !pos <> blen then fail "trailing bytes";
    Ok { p_session = session; p_epoch = epoch; p_ctx = ctx; p_payload = payload }
  with
  | Bad m -> Error m
  | _ -> Error "malformed message"

(* ---------- shared configuration ---------- *)

type config = {
  chunk_size : int;  (** bytes of sealed blob per chunk *)
  window : int;  (** go-back-N send window, in chunks *)
  ack_timeout : int;  (** ticks before an unacknowledged send refires *)
  backoff_max : int;  (** retransmit backoff cap, in ticks *)
  retry_budget : int;
      (** consecutive no-progress timeouts before a pre-commit abort *)
}

let default_config =
  { chunk_size = 1024; window = 4; ack_timeout = 4; backoff_max = 32;
    retry_budget = 12 }

let split_chunks cfg blob =
  let len = String.length blob in
  let n = max 1 ((len + cfg.chunk_size - 1) / cfg.chunk_size) in
  Array.init n (fun i ->
      let off = i * cfg.chunk_size in
      String.sub blob off (min cfg.chunk_size (len - off)))

(* ---------- causal-context discipline at the monitor boundary ----------

   Endpoint work that enters the monitor runs with the session's span
   context installed on the monitor's trace, so the ecall spans the
   monitor records land on the request's trace.  The previous context
   is always restored — [Fun.protect] — which is what keeps a crashed
   or aborted endpoint from leaking an installed context (or a
   half-open span: the protocol only ever emits instants). *)

let with_ctx mon ctx f =
  let tr = Monitor.trace mon in
  if Metrics.Trace.is_enabled tr && not (Metrics.Span.is_none ctx) then begin
    let saved = Metrics.Trace.ctx tr in
    Metrics.Trace.set_ctx tr ctx;
    Fun.protect ~finally:(fun () -> Metrics.Trace.set_ctx tr saved) f
  end
  else f ()

let proto_instant mon ctx ?(args = []) name =
  let tr = Monitor.trace mon in
  if Metrics.Trace.is_enabled tr then
    with_ctx mon ctx (fun () -> Metrics.Trace.instant tr ~args name)

(* ---------- source endpoint ---------- *)

type source_phase =
  | S_offering
  | S_streaming
  | S_finishing  (* every chunk acked; waiting for the Prepared vote *)
  | S_committing  (* past the commit point: push Commit until acked *)
  | S_done
  | S_aborted of string

type source = {
  sc : config;
  s_mon : Monitor.t;
  s_session : string;
  s_epoch : int;
  s_ctx : Metrics.Span.ctx;  (* stamped on every emitted message *)
  s_tag : string;
  s_chunks : string array;
  s_blob_len : int;
  mutable s_phase : source_phase;
  mutable s_base : int;  (* first unacknowledged chunk *)
  mutable s_deadline : int;
  mutable s_backoff : int;
  mutable s_stalls : int;
  mutable s_fresh : bool;  (* next timeout fire is a first send, not a retry *)
  mutable s_abort_fires : int;
  mutable s_events : int;
  mutable s_sent_chunks : int;
  mutable s_retransmits : int;
  mutable s_rejected : int;
  s_first_sent : int array;  (* tick of first send per chunk, for RTT *)
}

let source_phase s = s.s_phase
let source_events s = s.s_events
let source_session s = s.s_session
let source_epoch s = s.s_epoch

let source_stats s =
  (s.s_sent_chunks, s.s_retransmits, s.s_rejected)

let source_ctx s = s.s_ctx

let s_reg s = Monitor.registry s.s_mon

let make_source ~config ~mon ~session ~phase ~epoch ~ctx ~blob =
  let chunks = split_chunks config blob in
  {
    sc = config;
    s_mon = mon;
    s_session = session;
    s_epoch = epoch;
    s_ctx = ctx;
    s_tag = "";
    s_chunks = chunks;
    s_blob_len = String.length blob;
    s_phase = phase;
    s_base = 0;
    s_deadline = 0;
    s_backoff = 0;
    s_stalls = 0;
    s_fresh = true;
    s_abort_fires = 0;
    s_events = 0;
    s_sent_chunks = 0;
    s_retransmits = 0;
    s_rejected = 0;
    s_first_sent = Array.make (Array.length chunks) (-1);
  }

let source_start ?(config = default_config) ?ctx mon ~cvm ~session =
  let ctx = match ctx with Some c -> c | None -> Metrics.Span.root () in
  with_ctx mon ctx (fun () ->
      match
        Monitor.migrate_out_begin ~budget:config.retry_budget mon ~cvm ~session
      with
      | Error e -> Error e
      | Ok (blob, epoch) ->
          proto_instant mon ctx
            ~args:[ ("session", session); ("epoch", string_of_int epoch) ]
            "migproto.offer";
          let s =
            make_source ~config ~mon ~session ~phase:S_offering ~epoch ~ctx
              ~blob
          in
          Ok { s with s_tag = Monitor.(
            match migrate_session mon ~role:`Out ~session with
            | Some i -> i.mi_blob_tag
            | None -> "") })

(* Rebuild a source endpoint after a crash: the monitor's session table
   says how far the handoff got. An undecided session re-begins under a
   new epoch (same bytes — the nonce is pinned); a committed one resumes
   pushing Commit. *)
let source_recover ?(config = default_config) ?ctx mon ~session =
  (* The span context does not survive the crash (it lived in the dead
     endpoint); recovery continues the handoff under a fresh trace
     unless the driver threads the old one through. *)
  let ctx = match ctx with Some c -> c | None -> Metrics.Span.root () in
  match Monitor.migrate_session mon ~role:`Out ~session with
  | None -> Error Ecall.Not_found
  | Some info -> (
      match (info.Monitor.mi_phase, info.Monitor.mi_cvm) with
      | `Aborted, _ ->
          let s =
            make_source ~config ~mon ~session ~phase:(S_aborted "recovered")
              ~epoch:info.Monitor.mi_epoch ~ctx ~blob:""
          in
          Ok { s with s_tag = info.Monitor.mi_blob_tag }
      | `Committed, _ ->
          (* past the commit point: nothing to stream, drive Commit home *)
          let s =
            make_source ~config ~mon ~session ~phase:S_committing
              ~epoch:info.Monitor.mi_epoch ~ctx ~blob:""
          in
          Ok { s with s_tag = info.Monitor.mi_blob_tag }
      | `Active, Some cvm -> (
          match
            with_ctx mon ctx (fun () ->
                Monitor.migrate_out_begin ~budget:config.retry_budget mon ~cvm
                  ~session)
          with
          | Error e -> Error e
          | Ok (blob, epoch) ->
              proto_instant mon ctx
                ~args:[ ("session", session); ("epoch", string_of_int epoch) ]
                "migproto.reoffer";
              let s =
                make_source ~config ~mon ~session ~phase:S_offering ~epoch
                  ~ctx ~blob
              in
              Ok { s with s_tag = info.Monitor.mi_blob_tag })
      | `Active, None -> Error Ecall.Bad_state)

let source_note_progress s ~now =
  s.s_stalls <- 0;
  s.s_backoff <- 0;
  s.s_fresh <- true;
  s.s_deadline <- now

let source_abort s ~now ~reason =
  (match
     with_ctx s.s_mon s.s_ctx (fun () ->
         Monitor.migrate_out_abort s.s_mon ~session:s.s_session)
   with
  | Ok () | Error _ -> ());
  proto_instant s.s_mon s.s_ctx ~args:[ ("reason", reason) ] "migproto.abort";
  s.s_phase <- S_aborted reason;
  source_note_progress s ~now

let source_commit s ~now =
  match
    with_ctx s.s_mon s.s_ctx (fun () ->
        Monitor.migrate_out_commit s.s_mon ~session:s.s_session)
  with
  | Ok () ->
      proto_instant s.s_mon s.s_ctx "migproto.commit_point";
      s.s_phase <- S_committing;
      source_note_progress s ~now
  | Error _ ->
      (* only possible against an aborted session: fold to aborted *)
      s.s_phase <- S_aborted "commit refused"

let source_emit s ~now =
  let pkt p =
    encode
      { p_session = s.s_session; p_epoch = s.s_epoch; p_ctx = s.s_ctx;
        p_payload = p }
  in
  match s.s_phase with
  | S_offering ->
      [ pkt
          (Offer
             {
               total = Array.length s.s_chunks;
               blob_len = s.s_blob_len;
               chunk_size = s.sc.chunk_size;
               tag = s.s_tag;
             }) ]
  | S_streaming ->
      let hi = min (Array.length s.s_chunks) (s.s_base + s.sc.window) in
      let out = ref [] in
      for seq = hi - 1 downto s.s_base do
        if s.s_first_sent.(seq) < 0 then s.s_first_sent.(seq) <- now;
        s.s_sent_chunks <- s.s_sent_chunks + 1;
        Metrics.Registry.inc (s_reg s) "migrate.chunks_sent";
        out := pkt (Chunk { seq; data = s.s_chunks.(seq) }) :: !out
      done;
      !out
  | S_finishing -> [ pkt Query ]
  | S_committing -> [ pkt Commit ]
  | S_done -> []
  | S_aborted reason ->
      (* best-effort: tell the destination a few times, then go quiet *)
      if s.s_abort_fires > 4 then []
      else begin
        s.s_abort_fires <- s.s_abort_fires + 1;
        [ pkt (Abort reason) ]
      end

let source_handle s ~now pkt =
  match pkt.p_payload with
  | Status (St_receiving upto) -> (
      match s.s_phase with
      | S_offering ->
          (* the destination allocated its buffer: start streaming *)
          s.s_phase <- S_streaming;
          s.s_base <- max s.s_base upto;
          source_note_progress s ~now
      | S_streaming when upto = 0 && s.s_base > 0 ->
          (* destination lost its buffer (crash): it will re-offer *)
          s.s_phase <- S_offering;
          s.s_base <- 0;
          Array.fill s.s_first_sent 0 (Array.length s.s_first_sent) (-1);
          source_note_progress s ~now
      | _ -> ())
  | Ack { upto } -> (
      match s.s_phase with
      | S_streaming when upto > s.s_base && upto <= Array.length s.s_chunks ->
          for seq = s.s_base to upto - 1 do
            if s.s_first_sent.(seq) >= 0 then
              Metrics.Registry.observe (s_reg s) "migrate.chunk_rtt"
                (now - s.s_first_sent.(seq))
          done;
          s.s_base <- upto;
          if s.s_base = Array.length s.s_chunks then s.s_phase <- S_finishing;
          source_note_progress s ~now
      | _ -> ())
  | Status (St_prepared tag) ->
      (* Never commit against a vote for different bytes: the tag pins
         the vote to this session's exact blob. *)
      if tag <> s.s_tag then s.s_rejected <- s.s_rejected + 1
      else (
        match s.s_phase with
        | S_offering | S_streaming | S_finishing ->
            (* the destination voted: this is the point of no return *)
            source_commit s ~now
        | S_committing | S_done | S_aborted _ -> ())
  | Status (St_committed tag) ->
      if tag <> s.s_tag then s.s_rejected <- s.s_rejected + 1
      else (
        match s.s_phase with
        | S_committing ->
            s.s_phase <- S_done;
            source_note_progress s ~now
        | S_offering | S_streaming | S_finishing ->
            (* an earlier incarnation of this session already handed off;
               align the local monitor and finish *)
            source_commit s ~now;
            if s.s_phase = S_committing then s.s_phase <- S_done
        | S_done | S_aborted _ -> ())
  | Status (St_aborted reason) -> (
      match s.s_phase with
      | S_offering | S_streaming | S_finishing ->
          source_abort s ~now ~reason:("destination: " ^ reason)
      | S_committing | S_done | S_aborted _ ->
          (* past the commit point an abort vote is meaningless *) ())
  | Status St_unknown -> (
      match s.s_phase with
      | S_streaming | S_finishing ->
          (* destination lost everything pre-vote: start over *)
          s.s_phase <- S_offering;
          s.s_base <- 0;
          Array.fill s.s_first_sent 0 (Array.length s.s_first_sent) (-1);
          source_note_progress s ~now
      | _ -> ())
  | Offer _ | Chunk _ | Query | Commit | Abort _ ->
      (* source-bound kinds only; a reflected message is courier noise *)
      s.s_rejected <- s.s_rejected + 1

let source_step s ~now ~inbox =
  List.iter
    (fun msg ->
      match decode msg with
      | Error _ ->
          s.s_rejected <- s.s_rejected + 1;
          Metrics.Registry.inc (s_reg s) "migrate.rejected"
      | Ok pkt ->
          if pkt.p_session = s.s_session && pkt.p_epoch = s.s_epoch then begin
            s.s_events <- s.s_events + 1;
            source_handle s ~now pkt
          end
          else s.s_rejected <- s.s_rejected + 1)
    inbox;
  match s.s_phase with
  | S_done -> []
  | S_aborted _ when s.s_abort_fires > 4 -> []
  | _ ->
      if now < s.s_deadline then []
      else begin
        s.s_events <- s.s_events + 1;
        if s.s_fresh then s.s_fresh <- false
        else begin
          s.s_backoff <- min s.sc.backoff_max (max 1 (s.s_backoff * 2));
          match s.s_phase with
          | S_offering | S_streaming | S_finishing | S_committing ->
              (* a true retransmit: no progress since the last fire *)
              s.s_retransmits <- s.s_retransmits + 1;
              s.s_stalls <- s.s_stalls + 1;
              Metrics.Registry.inc (s_reg s) "migrate.retransmit";
              (match s.s_phase with
              | S_offering | S_streaming | S_finishing
                when s.s_stalls > s.sc.retry_budget ->
                  (* Abort before (not after) recording the overrun: the
                     SM rejects over-budget reports, and a crash landing
                     between a note and its abort must never strand an
                     active session the audit would flag. *)
                  source_abort s ~now ~reason:"retry budget exhausted"
              | _ ->
                  (* past the commit point we never give up, only back
                     off — the durable count stays pinned at the
                     budget the session declared *)
                  ignore
                    (Monitor.migrate_note_stalls s.s_mon
                       ~session:s.s_session
                       (min s.s_stalls s.sc.retry_budget)))
          | S_done | S_aborted _ ->
              (* best-effort terminal notifications, not retries *)
              ()
        end;
        let out = source_emit s ~now in
        s.s_deadline <- now + s.sc.ack_timeout + s.s_backoff;
        out
      end

(* ---------- destination endpoint ---------- *)

type recv_buf = {
  rb_total : int;
  rb_blob_len : int;
  rb_chunk_size : int;
  rb_tag : string;
  rb_slots : string option array;
  mutable rb_upto : int;  (* chunks contiguously received *)
}

type dest_phase =
  | D_waiting
  | D_receiving of recv_buf
  | D_prepared of int
  | D_committed of int
  | D_aborted of string

type dest = {
  dc : config;
  d_mon : Monitor.t;
  d_session : string;
  mutable d_epoch : int;
  mutable d_ctx : Metrics.Span.ctx;
      (* adopted from the source's messages, so both monitors' events
         land on the same trace *)
  mutable d_phase : dest_phase;
  mutable d_events : int;
  mutable d_chunks_recv : int;
  mutable d_dup_chunks : int;
  mutable d_rejected : int;
}

let dest_phase d = d.d_phase
let dest_events d = d.d_events
let dest_session d = d.d_session

let dest_stats d = (d.d_chunks_recv, d.d_dup_chunks, d.d_rejected)
let dest_ctx d = d.d_ctx

let dest_create ?(config = default_config) mon ~session =
  {
    dc = config;
    d_mon = mon;
    d_session = session;
    d_epoch = 0;
    d_ctx = Metrics.Span.none;
    d_phase = D_waiting;
    d_events = 0;
    d_chunks_recv = 0;
    d_dup_chunks = 0;
    d_rejected = 0;
  }

(* Rebuild a destination endpoint after a crash. Chunks in flight are
   gone — only the monitor's prepared/committed record survives. *)
let dest_recover ?(config = default_config) mon ~session =
  let d = dest_create ~config mon ~session in
  (match Monitor.migrate_session mon ~role:`In ~session with
  | None -> ()
  | Some info -> (
      d.d_epoch <- info.Monitor.mi_epoch;
      match (info.Monitor.mi_phase, info.Monitor.mi_cvm) with
      | `Active, Some cvm -> d.d_phase <- D_prepared cvm
      | `Active, None -> d.d_phase <- D_waiting
      | `Committed, Some cvm -> d.d_phase <- D_committed cvm
      | `Committed, None -> d.d_phase <- D_aborted "committed without CVM"
      | `Aborted, _ -> d.d_phase <- D_aborted "recovered"));
  d

(* The tag of the instance this monitor actually prepared — recomputed
   from the monitor's record, not from what the source offered. *)
let d_tag d =
  match Monitor.migrate_session d.d_mon ~role:`In ~session:d.d_session with
  | Some info -> info.Monitor.mi_blob_tag
  | None -> ""

let dest_status d =
  match d.d_phase with
  | D_waiting -> St_unknown
  | D_receiving rb -> St_receiving rb.rb_upto
  | D_prepared _ -> St_prepared (d_tag d)
  | D_committed _ -> St_committed (d_tag d)
  | D_aborted reason -> St_aborted reason

let dest_assemble d rb =
  let b = Buffer.create (rb.rb_total * rb.rb_chunk_size) in
  Array.iter
    (function Some c -> Buffer.add_string b c | None -> assert false)
    rb.rb_slots;
  let blob = Buffer.contents b in
  if String.length blob <> rb.rb_blob_len then begin
    d.d_phase <- D_aborted "blob length mismatch";
    Metrics.Registry.inc (Monitor.registry d.d_mon) "migrate.prepare_fail"
  end
  else
    match
      with_ctx d.d_mon d.d_ctx (fun () ->
          Monitor.migrate_in_prepare d.d_mon ~session:d.d_session
            ~epoch:d.d_epoch blob)
    with
    | Ok cvm ->
        d.d_phase <- D_prepared cvm;
        proto_instant d.d_mon d.d_ctx
          ~args:[ ("cvm", string_of_int cvm) ]
          "migproto.prepared";
        Metrics.Registry.inc (Monitor.registry d.d_mon) "migrate.prepared"
    | Error e ->
        d.d_phase <- D_aborted (Ecall.error_to_string e);
        Metrics.Registry.inc (Monitor.registry d.d_mon) "migrate.prepare_fail"

let dest_handle d pkt =
  (* Adopt the source's causal context so this monitor's prepare /
     commit events join the same trace. *)
  if not (Metrics.Span.is_none pkt.p_ctx) then d.d_ctx <- pkt.p_ctx;
  let reply st = [ Status st ] in
  let replies =
    match pkt.p_payload with
    | Offer { total; blob_len; chunk_size; tag } -> (
        let fresh_buf () =
          D_receiving
            {
              rb_total = total;
              rb_blob_len = blob_len;
              rb_chunk_size = chunk_size;
              rb_tag = tag;
              rb_slots = Array.make total None;
              rb_upto = 0;
            }
        in
        match d.d_phase with
        | D_waiting ->
            d.d_epoch <- pkt.p_epoch;
            d.d_phase <- fresh_buf ();
            reply (St_receiving 0)
        | D_receiving rb ->
            if pkt.p_epoch > d.d_epoch then begin
              (* source restarted under a new epoch: same bytes, but
                 in-flight chunks of the old epoch can no longer be
                 told apart — start clean *)
              d.d_epoch <- pkt.p_epoch;
              d.d_phase <- fresh_buf ();
              reply (St_receiving 0)
            end
            else reply (St_receiving rb.rb_upto)
        | D_prepared _ ->
            d.d_epoch <- max d.d_epoch pkt.p_epoch;
            reply (St_prepared (d_tag d))
        | D_committed _ -> reply (St_committed (d_tag d))
        | D_aborted reason -> reply (St_aborted reason))
    | Chunk { seq; data } -> (
        match d.d_phase with
        | D_receiving rb when pkt.p_epoch = d.d_epoch ->
            if seq < 0 || seq >= rb.rb_total then reply (St_receiving rb.rb_upto)
            else begin
              (match rb.rb_slots.(seq) with
              | Some _ -> d.d_dup_chunks <- d.d_dup_chunks + 1
              | None ->
                  rb.rb_slots.(seq) <- Some data;
                  d.d_chunks_recv <- d.d_chunks_recv + 1;
                  while
                    rb.rb_upto < rb.rb_total
                    && rb.rb_slots.(rb.rb_upto) <> None
                  do
                    rb.rb_upto <- rb.rb_upto + 1
                  done);
              if rb.rb_upto = rb.rb_total then begin
                dest_assemble d rb;
                [ Ack { upto = rb.rb_upto }; Status (dest_status d) ]
              end
              else [ Ack { upto = rb.rb_upto } ]
            end
        | D_waiting ->
            (* chunks for an offer we never saw: ask for a re-offer *)
            reply St_unknown
        | _ -> reply (dest_status d))
    | Query -> reply (dest_status d)
    | Commit -> (
        match d.d_phase with
        | D_prepared _ -> (
            match
              with_ctx d.d_mon d.d_ctx (fun () ->
                  Monitor.migrate_in_commit d.d_mon ~session:d.d_session)
            with
            | Ok cvm ->
                d.d_phase <- D_committed cvm;
                proto_instant d.d_mon d.d_ctx
                  ~args:[ ("cvm", string_of_int cvm) ]
                  "migproto.committed";
                reply (St_committed (d_tag d))
            | Error e ->
                d.d_phase <- D_aborted (Ecall.error_to_string e);
                reply (St_aborted (Ecall.error_to_string e)))
        | D_committed _ -> reply (St_committed (d_tag d))
        | D_aborted reason -> reply (St_aborted reason)
        | D_waiting | D_receiving _ ->
            (* a Commit can only chase a Prepared vote; seeing one here
               means our state is an earlier incarnation's — resync *)
            reply (dest_status d))
    | Abort reason -> (
        match d.d_phase with
        | D_committed _ ->
            (* we voted and committed; the handoff cannot be undone *)
            reply (St_committed (d_tag d))
        | D_prepared _ -> (
            match
              with_ctx d.d_mon d.d_ctx (fun () ->
                  Monitor.migrate_in_abort d.d_mon ~session:d.d_session)
            with
            | Ok () | Error _ ->
                d.d_phase <- D_aborted reason;
                proto_instant d.d_mon d.d_ctx
                  ~args:[ ("reason", reason) ]
                  "migproto.abort";
                reply (St_aborted reason))
        | D_waiting | D_receiving _ ->
            d.d_phase <- D_aborted reason;
            reply (St_aborted reason)
        | D_aborted r -> reply (St_aborted r))
    | Ack _ | Status _ ->
        d.d_rejected <- d.d_rejected + 1;
        []
  in
  (* Replies echo the epoch (and context) of the message they answer:
     the source only listens at its own epoch, and a recovered
     destination's local epoch may lag until the next Offer reaches
     it. *)
  List.map
    (fun p ->
      encode
        { p_session = d.d_session; p_epoch = pkt.p_epoch; p_ctx = pkt.p_ctx;
          p_payload = p })
    replies

let dest_step d ~now:_ ~inbox =
  List.concat_map
    (fun msg ->
      match decode msg with
      | Error _ ->
          d.d_rejected <- d.d_rejected + 1;
          Metrics.Registry.inc (Monitor.registry d.d_mon) "migrate.rejected";
          []
      | Ok pkt ->
          if pkt.p_session <> d.d_session || pkt.p_epoch < d.d_epoch then begin
            d.d_rejected <- d.d_rejected + 1;
            []
          end
          else begin
            d.d_events <- d.d_events + 1;
            dest_handle d pkt
          end)
    inbox
