(* Write-ahead intent journal. The records model durable NVRAM writes;
   the crash injector quantizes SM death to exactly these points with
   write-then-die semantics. See journal.mli and DESIGN.md. *)

type op =
  | Op_create of { cvm : int; block_base : int64; nvcpus : int }
  | Op_load of { cvm : int; gpa : int64; npages : int }
  | Op_expand of { base : int64; size : int64 }
  | Op_relinquish of { cvm : int; gpa : int64; pa : int64 }
  | Op_destroy of { cvm : int }
  | Op_quarantine of { cvm : int; reason : string }
  | Op_mig_out_begin of { session : string; cvm : int }
  | Op_mig_out_abort of { session : string }
  | Op_mig_out_commit of { session : string }
  | Op_mig_in_prepare of {
      session : string;
      epoch : int;
      mutable built : int option;
    }
  | Op_mig_in_commit of { session : string }
  | Op_mig_in_abort of { session : string }
  | Op_chan_grant of { chan : int; a : int; b : int; block_base : int64 }
  | Op_chan_accept of { chan : int }
  | Op_chan_revoke of { chan : int; degraded : bool }

type state = Pending | Done

type record = {
  seq : int;
  op : op;
  mutable state : state;
  mutable step : string;
}

type t = {
  mutable recs : record list; (* newest first *)
  mutable next_seq : int;
  mutable nwrites : int;
  mutable crash_in : int; (* 0 = disarmed; n = crash at the nth write *)
}

exception Crashed

let create () = { recs = []; next_seq = 1; nwrites = 0; crash_in = 0 }

(* One durable write. The state change has already landed when the
   armed crash fires — write-then-die. *)
let point j =
  j.nwrites <- j.nwrites + 1;
  if j.crash_in > 0 then begin
    j.crash_in <- j.crash_in - 1;
    if j.crash_in = 0 then raise Crashed
  end

(* Keep the log bounded: pending records are sacred, but done records
   only serve reports — retain a recent window of them. *)
let retain_done = 64

let maybe_compact j =
  if List.length j.recs > 4 * retain_done then begin
    let kept = ref 0 in
    j.recs <-
      List.filter
        (fun r ->
          r.state = Pending
          ||
          (incr kept;
           !kept <= retain_done))
        j.recs
  end

let append j op =
  maybe_compact j;
  let r = { seq = j.next_seq; op; state = Pending; step = "" } in
  j.next_seq <- j.next_seq + 1;
  j.recs <- r :: j.recs;
  point j;
  r

let checkpoint j r label =
  r.step <- label;
  point j

let mark_done j r =
  r.state <- Done;
  point j

let pending j = List.rev (List.filter (fun r -> r.state = Pending) j.recs)
let records j = List.rev j.recs
let length j = List.length j.recs
let compact j = j.recs <- List.filter (fun r -> r.state = Pending) j.recs
let writes j = j.nwrites

let set_crash_after j n =
  if n <= 0 then invalid_arg "Journal.set_crash_after: need n >= 1";
  j.crash_in <- n

let disarm j = j.crash_in <- 0
let armed j = j.crash_in > 0

(* ---------- serialization ---------- *)

let hex s =
  String.concat ""
    (List.init (String.length s) (fun i ->
         Printf.sprintf "%02x" (Char.code s.[i])))

let unhex s =
  let n = String.length s in
  if n mod 2 <> 0 then Error "odd-length hex string"
  else
    let digit c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | _ -> Error "bad hex digit"
    in
    let buf = Bytes.create (n / 2) in
    let rec go i =
      if i >= n / 2 then Ok (Bytes.to_string buf)
      else
        match (digit s.[2 * i], digit s.[(2 * i) + 1]) with
        | Ok hi, Ok lo ->
            Bytes.set buf i (Char.chr ((hi lsl 4) lor lo));
            go (i + 1)
        | Error e, _ | _, Error e -> Error e
    in
    go 0

let built_to_string = function None -> "-" | Some id -> string_of_int id

let op_to_string = function
  | Op_create { cvm; block_base; nvcpus } ->
      Printf.sprintf "create:%d:0x%Lx:%d" cvm block_base nvcpus
  | Op_load { cvm; gpa; npages } ->
      Printf.sprintf "load:%d:0x%Lx:%d" cvm gpa npages
  | Op_expand { base; size } -> Printf.sprintf "expand:0x%Lx:0x%Lx" base size
  | Op_relinquish { cvm; gpa; pa } ->
      Printf.sprintf "relinquish:%d:0x%Lx:0x%Lx" cvm gpa pa
  | Op_destroy { cvm } -> Printf.sprintf "destroy:%d" cvm
  | Op_quarantine { cvm; reason } ->
      Printf.sprintf "quarantine:%d:%s" cvm (hex reason)
  | Op_mig_out_begin { session; cvm } ->
      Printf.sprintf "mig-out-begin:%s:%d" (hex session) cvm
  | Op_mig_out_abort { session } ->
      Printf.sprintf "mig-out-abort:%s" (hex session)
  | Op_mig_out_commit { session } ->
      Printf.sprintf "mig-out-commit:%s" (hex session)
  | Op_mig_in_prepare { session; epoch; built } ->
      Printf.sprintf "mig-in-prepare:%s:%d:%s" (hex session) epoch
        (built_to_string built)
  | Op_mig_in_commit { session } ->
      Printf.sprintf "mig-in-commit:%s" (hex session)
  | Op_mig_in_abort { session } ->
      Printf.sprintf "mig-in-abort:%s" (hex session)
  | Op_chan_grant { chan; a; b; block_base } ->
      Printf.sprintf "chan-grant:%d:%d:%d:0x%Lx" chan a b block_base
  | Op_chan_accept { chan } -> Printf.sprintf "chan-accept:%d" chan
  | Op_chan_revoke { chan; degraded } ->
      Printf.sprintf "chan-revoke:%d:%d" chan (if degraded then 1 else 0)

let int_of s = int_of_string_opt s
let i64_of s = Int64.of_string_opt s

let built_of = function
  | "-" -> Ok None
  | s -> (
      match int_of s with
      | Some id -> Ok (Some id)
      | None -> Error "bad built field")

let op_of_string s =
  let ( let* ) r f = match r with Ok v -> f v | Error e -> Error e in
  let req name = function
    | Some v -> Ok v
    | None -> Error ("bad " ^ name ^ " field")
  in
  match String.split_on_char ':' s with
  | [ "create"; cvm; base; nvcpus ] ->
      let* cvm = req "cvm" (int_of cvm) in
      let* block_base = req "base" (i64_of base) in
      let* nvcpus = req "nvcpus" (int_of nvcpus) in
      Ok (Op_create { cvm; block_base; nvcpus })
  | [ "load"; cvm; gpa; npages ] ->
      let* cvm = req "cvm" (int_of cvm) in
      let* gpa = req "gpa" (i64_of gpa) in
      let* npages = req "npages" (int_of npages) in
      Ok (Op_load { cvm; gpa; npages })
  | [ "expand"; base; size ] ->
      let* base = req "base" (i64_of base) in
      let* size = req "size" (i64_of size) in
      Ok (Op_expand { base; size })
  | [ "relinquish"; cvm; gpa; pa ] ->
      let* cvm = req "cvm" (int_of cvm) in
      let* gpa = req "gpa" (i64_of gpa) in
      let* pa = req "pa" (i64_of pa) in
      Ok (Op_relinquish { cvm; gpa; pa })
  | [ "destroy"; cvm ] ->
      let* cvm = req "cvm" (int_of cvm) in
      Ok (Op_destroy { cvm })
  | [ "quarantine"; cvm; reason ] ->
      let* cvm = req "cvm" (int_of cvm) in
      let* reason = unhex reason in
      Ok (Op_quarantine { cvm; reason })
  | [ "mig-out-begin"; session; cvm ] ->
      let* session = unhex session in
      let* cvm = req "cvm" (int_of cvm) in
      Ok (Op_mig_out_begin { session; cvm })
  | [ "mig-out-abort"; session ] ->
      let* session = unhex session in
      Ok (Op_mig_out_abort { session })
  | [ "mig-out-commit"; session ] ->
      let* session = unhex session in
      Ok (Op_mig_out_commit { session })
  | [ "mig-in-prepare"; session; epoch; built ] ->
      let* session = unhex session in
      let* epoch = req "epoch" (int_of epoch) in
      let* built = built_of built in
      Ok (Op_mig_in_prepare { session; epoch; built })
  | [ "mig-in-commit"; session ] ->
      let* session = unhex session in
      Ok (Op_mig_in_commit { session })
  | [ "mig-in-abort"; session ] ->
      let* session = unhex session in
      Ok (Op_mig_in_abort { session })
  | [ "chan-grant"; chan; a; b; base ] ->
      let* chan = req "chan" (int_of chan) in
      let* a = req "a" (int_of a) in
      let* b = req "b" (int_of b) in
      let* block_base = req "base" (i64_of base) in
      Ok (Op_chan_grant { chan; a; b; block_base })
  | [ "chan-accept"; chan ] ->
      let* chan = req "chan" (int_of chan) in
      Ok (Op_chan_accept { chan })
  | [ "chan-revoke"; chan; degraded ] ->
      let* chan = req "chan" (int_of chan) in
      let* d = req "degraded" (int_of degraded) in
      Ok (Op_chan_revoke { chan; degraded = d <> 0 })
  | _ -> Error ("unknown journal op: " ^ s)

let state_to_string = function Pending -> "pending" | Done -> "done"

let record_to_string r =
  Printf.sprintf "%d|%s|%s|%s" r.seq (state_to_string r.state) (hex r.step)
    (op_to_string r.op)

let record_of_string line =
  match String.split_on_char '|' line with
  | [ seq; state; step; op ] -> (
      match (int_of_string_opt seq, state, unhex step, op_of_string op) with
      | Some seq, ("pending" | "done"), Ok step, Ok op ->
          Ok
            {
              seq;
              op;
              state = (if state = "pending" then Pending else Done);
              step;
            }
      | None, _, _, _ -> Error "bad sequence number"
      | _, _, Error e, _ -> Error ("bad step: " ^ e)
      | _, _, _, Error e -> Error e
      | _ -> Error "bad record state")
  | _ -> Error "malformed journal record"

let dump j = String.concat "\n" (List.map record_to_string (records j))
