type phase = Span_begin | Span_end | Instant | Counter of int

type event = {
  ts : int;
  name : string;
  phase : phase;
  hart : int;
  cvm : int;
  vcpu : int;
  args : (string * string) list;
}

let dummy =
  { ts = 0; name = ""; phase = Instant; hart = -1; cvm = -1; vcpu = -1;
    args = [] }

type t = {
  mutable enabled : bool;
  cap : int;
  mutable buf : event array; (* [||] until the first [enable] *)
  mutable next : int; (* ring write cursor *)
  mutable recorded : int;
  mutable lost : int; (* wraparound losses folded in by [clear] *)
  mutable ctx : Span.ctx; (* current causal context, stamped on events *)
  mutable ctx_args : (string * string) list; (* precomputed Span.to_args ctx *)
  mutable coalesced : int; (* counter samples absorbed by the eviction guard *)
  counter_idx : (string, int) Hashtbl.t; (* counter name -> last slot *)
  clock : unit -> int;
}

let create ?(capacity = 65536) ~clock () =
  if capacity <= 0 then invalid_arg "Trace.create: non-positive capacity";
  { enabled = false; cap = capacity; buf = [||];
    next = 0; recorded = 0; lost = 0; ctx = Span.none; ctx_args = [];
    coalesced = 0; counter_idx = Hashtbl.create 16; clock }

(* The ring is allocated here, not in [create]: every monitor owns a
   trace, and most never record into it. Recording only happens while
   enabled, so the recording paths never see the empty ring. *)
let enable t =
  if Array.length t.buf = 0 then t.buf <- Array.make t.cap dummy;
  t.enabled <- true
let disable t = t.enabled <- false
let is_enabled t = t.enabled

let clear t =
  t.lost <- t.lost + max 0 (t.recorded - t.cap);
  Array.fill t.buf 0 (Array.length t.buf) dummy;
  t.next <- 0;
  t.recorded <- 0;
  Hashtbl.reset t.counter_idx

let set_ctx t c =
  if t.enabled then begin
    t.ctx <- c;
    t.ctx_args <- Span.to_args c
  end

let clear_ctx t =
  t.ctx <- Span.none;
  t.ctx_args <- []

let ctx t = t.ctx

let record t phase ~hart ~cvm ~vcpu ~args name =
  let args =
    match t.ctx_args with
    | [] -> args
    | stamp -> ( match args with [] -> stamp | _ -> args @ stamp)
  in
  t.buf.(t.next) <- { ts = t.clock (); name; phase; hart; cvm; vcpu; args };
  t.next <- (t.next + 1) mod t.cap;
  t.recorded <- t.recorded + 1

let span_begin t ?(hart = -1) ?(cvm = -1) ?(vcpu = -1) ?(args = []) name =
  if t.enabled then record t Span_begin ~hart ~cvm ~vcpu ~args name

let span_end t ?(hart = -1) ?(cvm = -1) ?(vcpu = -1) ?(args = []) name =
  if t.enabled then record t Span_end ~hart ~cvm ~vcpu ~args name

let instant t ?(hart = -1) ?(cvm = -1) ?(vcpu = -1) ?(args = []) name =
  if t.enabled then record t Instant ~hart ~cvm ~vcpu ~args name

(* Counter samples are high-rate and low-value relative to span
   structure, so once the ring has wrapped they must not evict
   non-counter events.  While the ring still has virgin slots a
   counter records normally; after wraparound, if the eviction victim
   is itself a counter we also record normally (counters evicting
   counters is fine), otherwise the sample is folded into the most
   recent buffered sample of the same counter (updating its value and
   timestamp in place) or, failing that, dropped.  Either guarded
   outcome increments [coalesced]. *)
let counter t ?(hart = -1) ?(cvm = -1) name value =
  if t.enabled then begin
    let full = t.recorded >= t.cap in
    let victim_is_counter =
      (not full) || match t.buf.(t.next).phase with Counter _ -> true
                    | _ -> false
    in
    if victim_is_counter then begin
      Hashtbl.replace t.counter_idx name t.next;
      record t (Counter value) ~hart ~cvm ~vcpu:(-1) ~args:[] name
    end
    else begin
      (match Hashtbl.find_opt t.counter_idx name with
      | Some slot -> (
          (* The remembered slot may have been overwritten by ring
             wraparound since; only update in place if it still holds
             this counter. *)
          match t.buf.(slot) with
          | { phase = Counter _; name = n; _ } as old when n = name ->
              t.buf.(slot) <-
                { old with ts = t.clock (); phase = Counter value }
          | _ -> ())
      | None -> ());
      t.coalesced <- t.coalesced + 1
    end
  end

let recorded t = t.recorded
let dropped t = t.lost + max 0 (t.recorded - t.cap)
let coalesced t = t.coalesced
let capacity t = t.cap

let events t =
  let n = min t.recorded t.cap in
  let start = if t.recorded <= t.cap then 0 else t.next in
  List.init n (fun i -> t.buf.((start + i) mod t.cap))

(* ---------- JSON emission ---------- *)

let escape_into b s =
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\r' -> Buffer.add_string b "\\r"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s

let add_str b s =
  Buffer.add_char b '"';
  escape_into b s;
  Buffer.add_char b '"'

let add_args b args =
  Buffer.add_char b '{';
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char b ',';
      add_str b k;
      Buffer.add_char b ':';
      add_str b v)
    args;
  Buffer.add_char b '}'

let phase_letter = function
  | Span_begin -> "B"
  | Span_end -> "E"
  | Instant -> "i"
  | Counter _ -> "C"

let to_jsonl t =
  let b = Buffer.create 4096 in
  List.iter
    (fun e ->
      Buffer.add_string b (Printf.sprintf "{\"ts\":%d,\"ph\":\"" e.ts);
      Buffer.add_string b (phase_letter e.phase);
      Buffer.add_string b "\",\"name\":";
      add_str b e.name;
      Buffer.add_string b
        (Printf.sprintf ",\"hart\":%d,\"cvm\":%d,\"vcpu\":%d" e.hart e.cvm
           e.vcpu);
      (match e.phase with
      | Counter v -> Buffer.add_string b (Printf.sprintf ",\"value\":%d" v)
      | _ -> ());
      if e.args <> [] then begin
        Buffer.add_string b ",\"args\":";
        add_args b e.args
      end;
      Buffer.add_string b "}\n")
    (events t);
  Buffer.contents b

let to_chrome ?(cycles_per_us = 100.) t =
  let evs = events t in
  let b = Buffer.create 8192 in
  Buffer.add_string b "{\"traceEvents\":[";
  let first = ref true in
  let emit_sep () =
    if !first then first := false else Buffer.add_char b ',';
    Buffer.add_string b "\n"
  in
  (* Process-name metadata: one entry per distinct pid. *)
  let pids = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let pid = if e.cvm < 0 then 0 else e.cvm in
      if not (Hashtbl.mem pids pid) then Hashtbl.add pids pid ())
    evs;
  let named =
    List.sort compare (Hashtbl.fold (fun pid () acc -> pid :: acc) pids [])
  in
  List.iter
    (fun pid ->
      emit_sep ();
      let name = if pid = 0 then "host/secure-monitor" else
          Printf.sprintf "cvm-%d" pid in
      Buffer.add_string b
        (Printf.sprintf
           "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":%d,\"tid\":0,\
            \"args\":{\"name\":\"%s\"}}"
           pid name))
    named;
  List.iter
    (fun e ->
      emit_sep ();
      let pid = if e.cvm < 0 then 0 else e.cvm in
      let tid = if e.hart < 0 then 0 else e.hart in
      let ts = float_of_int e.ts /. cycles_per_us in
      Buffer.add_string b "{\"name\":";
      add_str b e.name;
      Buffer.add_string b
        (Printf.sprintf
           ",\"cat\":\"zion\",\"ph\":\"%s\",\"ts\":%.3f,\"pid\":%d,\"tid\":%d"
           (phase_letter e.phase) ts pid tid);
      (match e.phase with Instant -> Buffer.add_string b ",\"s\":\"t\""
      | _ -> ());
      (match e.phase with
      | Counter v ->
          Buffer.add_string b (Printf.sprintf ",\"args\":{\"value\":%d}" v)
      | _ ->
          let args =
            if e.vcpu >= 0 then ("vcpu", string_of_int e.vcpu) :: e.args
            else e.args
          in
          if args <> [] then begin
            Buffer.add_string b ",\"args\":";
            add_args b args
          end);
      Buffer.add_char b '}')
    evs;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b
