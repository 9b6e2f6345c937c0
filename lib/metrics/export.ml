type json =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of json list
  | Obj of (string * json) list

let num_of_int i = Num (float_of_int i)

(* ---------- serialization ---------- *)

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

let add_num b f =
  if Float.is_integer f && Float.abs f < 1e15 then
    Buffer.add_string b (Printf.sprintf "%.0f" f)
  else Buffer.add_string b (Printf.sprintf "%.17g" f)

let json_to_string v =
  let b = Buffer.create 256 in
  let rec go = function
    | Null -> Buffer.add_string b "null"
    | Bool true -> Buffer.add_string b "true"
    | Bool false -> Buffer.add_string b "false"
    | Num f -> add_num b f
    | Str s ->
        Buffer.add_char b '"';
        escape_into b s;
        Buffer.add_char b '"'
    | List vs ->
        Buffer.add_char b '[';
        List.iteri
          (fun i v ->
            if i > 0 then Buffer.add_char b ',';
            go v)
          vs;
        Buffer.add_char b ']'
    | Obj kvs ->
        Buffer.add_char b '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char b ',';
            Buffer.add_char b '"';
            escape_into b k;
            Buffer.add_string b "\":";
            go v)
          kvs;
        Buffer.add_char b '}'
  in
  go v;
  Buffer.contents b

let member k = function
  | Obj kvs -> List.assoc_opt k kvs
  | _ -> None

(* ---------- parsing ---------- *)

exception Parse_error of int * string

let parse_json s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Parse_error (!pos, msg)) in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    match peek () with
    | Some c' when c' = c -> advance ()
    | _ -> fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    let m = String.length word in
    if !pos + m <= n && String.sub s !pos m = word then begin
      pos := !pos + m;
      v
    end
    else fail (Printf.sprintf "expected %s" word)
  in
  let add_utf8 b cp =
    if cp < 0x80 then Buffer.add_char b (Char.chr cp)
    else if cp < 0x800 then begin
      Buffer.add_char b (Char.chr (0xC0 lor (cp lsr 6)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
    else begin
      Buffer.add_char b (Char.chr (0xE0 lor (cp lsr 12)));
      Buffer.add_char b (Char.chr (0x80 lor ((cp lsr 6) land 0x3F)));
      Buffer.add_char b (Char.chr (0x80 lor (cp land 0x3F)))
    end
  in
  let parse_string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            (if !pos >= n then fail "unterminated escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char b '"'; advance ()
               | '\\' -> Buffer.add_char b '\\'; advance ()
               | '/' -> Buffer.add_char b '/'; advance ()
               | 'n' -> Buffer.add_char b '\n'; advance ()
               | 'r' -> Buffer.add_char b '\r'; advance ()
               | 't' -> Buffer.add_char b '\t'; advance ()
               | 'b' -> Buffer.add_char b '\b'; advance ()
               | 'f' -> Buffer.add_char b '\012'; advance ()
               | 'u' ->
                   advance ();
                   if !pos + 4 > n then fail "truncated \\u escape";
                   let hex = String.sub s !pos 4 in
                   (match int_of_string_opt ("0x" ^ hex) with
                   | Some cp -> add_utf8 b cp
                   | None -> fail "bad \\u escape");
                   pos := !pos + 4
               | c -> fail (Printf.sprintf "bad escape '\\%c'" c));
            go ()
        | c -> Buffer.add_char b c; advance (); go ()
    in
    go ();
    Buffer.contents b
  in
  let parse_number () =
    let start = !pos in
    let num_char c =
      match c with
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && num_char s.[!pos] do
      advance ()
    done;
    match float_of_string_opt (String.sub s start (!pos - start)) with
    | Some f -> f
    | None -> fail "bad number"
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> fail "unexpected end of input"
    | Some '"' -> Str (parse_string ())
    | Some 'n' -> literal "null" Null
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List.rev (v :: acc)
            | _ -> fail "expected ',' or ']'"
          in
          List (items [])
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let rec pairs acc =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); pairs ((k, v) :: acc)
            | Some '}' -> advance (); List.rev ((k, v) :: acc)
            | _ -> fail "expected ',' or '}'"
          in
          Obj (pairs [])
        end
    | Some _ -> Num (parse_number ())
  in
  match
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v
  with
  | v -> Ok v
  | exception Parse_error (p, msg) ->
      Error (Printf.sprintf "JSON parse error at %d: %s" p msg)

(* ---------- registry -> JSON ---------- *)

let scope_fields = function
  | Registry.Global -> [ ("scope", Str "global") ]
  | Registry.Cvm id -> [ ("scope", Str "cvm"); ("cvm", num_of_int id) ]

let registry_to_json ?(extra = []) reg =
  let counters =
    List.map
      (fun (s, name, v) ->
        Obj (scope_fields s @ [ ("name", Str name); ("value", num_of_int v) ]))
      (Registry.counters reg)
  in
  let histograms =
    List.map
      (fun (s, name, h) ->
        Obj
          (scope_fields s
          @ [
              ("name", Str name);
              ("count", num_of_int (Histogram.count h));
              ("sum", num_of_int (Histogram.sum h));
              ("mean", Num (Histogram.mean h));
              ("p50", Num (Histogram.quantile h 50.));
              ("p95", Num (Histogram.quantile h 95.));
              ("p99", Num (Histogram.quantile h 99.));
              ("min", num_of_int (Histogram.min_value h));
              ("max", num_of_int (Histogram.max_value h));
            ]))
      (Registry.histograms reg)
  in
  Obj
    ([ ("counters", List counters); ("histograms", List histograms) ] @ extra)

(* ---------- registry -> Prometheus text ---------- *)

let sanitize name =
  String.map
    (fun c ->
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> c
      | _ -> '_')
    name

let scope_labels = function
  | Registry.Global -> [ ("scope", "global") ]
  | Registry.Cvm id -> [ ("cvm", string_of_int id) ]

let render_labels b labels =
  if labels <> [] then begin
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, v) ->
        if i > 0 then Buffer.add_char b ',';
        Buffer.add_string b k;
        Buffer.add_string b "=\"";
        escape_into b v;
        Buffer.add_char b '"')
      labels;
    Buffer.add_char b '}'
  end

let sample b name labels value =
  Buffer.add_string b name;
  render_labels b labels;
  Buffer.add_char b ' ';
  add_num b value;
  Buffer.add_char b '\n'

let registry_to_prometheus reg =
  let b = Buffer.create 2048 in
  let pfx name = sanitize ("zion_" ^ name) in
  let seen_type = Hashtbl.create 16 in
  let type_line name kind =
    if not (Hashtbl.mem seen_type name) then begin
      Hashtbl.add seen_type name ();
      Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" name kind)
    end
  in
  List.iter
    (fun (s, name, v) ->
      let mname = pfx name ^ "_total" in
      type_line mname "counter";
      sample b mname (scope_labels s) (float_of_int v))
    (Registry.counters reg);
  List.iter
    (fun (s, name, h) ->
      let mname = pfx name in
      type_line mname "summary";
      let labels = scope_labels s in
      List.iter
        (fun (q, p) ->
          sample b mname (labels @ [ ("quantile", q) ]) (Histogram.quantile h p))
        [ ("0.5", 50.); ("0.95", 95.); ("0.99", 99.) ];
      sample b (mname ^ "_count") labels (float_of_int (Histogram.count h));
      sample b (mname ^ "_sum") labels (float_of_int (Histogram.sum h)))
    (Registry.histograms reg);
  Buffer.contents b

(* ---------- Prometheus text -> samples ---------- *)

let parse_prometheus text =
  let parse_line lineno line =
    (* name{k="v",...} value *)
    let fail msg = Error (Printf.sprintf "line %d: %s" lineno msg) in
    let n = String.length line in
    let is_name_char c =
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
      | _ -> false
    in
    let i = ref 0 in
    while !i < n && is_name_char line.[!i] do
      incr i
    done;
    if !i = 0 then fail "expected metric name"
    else begin
      let name = String.sub line 0 !i in
      let labels = ref [] in
      let ok = ref (Ok ()) in
      (if !i < n && line.[!i] = '{' then begin
         incr i;
         let rec labels_loop () =
           if !i >= n then ok := Error "unterminated label set"
           else if line.[!i] = '}' then incr i
           else begin
             let ls = !i in
             while !i < n && line.[!i] <> '=' do
               incr i
             done;
             if !i >= n then ok := Error "label without '='"
             else begin
               let k = String.sub line ls (!i - ls) in
               incr i;
               if !i >= n || line.[!i] <> '"' then
                 ok := Error "label value must be quoted"
               else begin
                 incr i;
                 let b = Buffer.create 8 in
                 let rec str () =
                   if !i >= n then ok := Error "unterminated label value"
                   else
                     match line.[!i] with
                     | '"' -> incr i
                     | '\\' when !i + 1 < n ->
                         Buffer.add_char b line.[!i + 1];
                         i := !i + 2;
                         str ()
                     | c ->
                         Buffer.add_char b c;
                         incr i;
                         str ()
                 in
                 str ();
                 if !ok = Ok () then begin
                   labels := (k, Buffer.contents b) :: !labels;
                   if !i < n && line.[!i] = ',' then begin
                     incr i;
                     labels_loop ()
                   end
                   else labels_loop ()
                 end
               end
             end
           end
         in
         labels_loop ()
       end);
      match !ok with
      | Error msg -> fail msg
      | Ok () -> (
          let rest = String.trim (String.sub line !i (n - !i)) in
          match float_of_string_opt rest with
          | Some v -> Ok (name, List.rev !labels, v)
          | None -> fail (Printf.sprintf "bad sample value %S" rest))
    end
  in
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] -> Ok (List.rev acc)
    | line :: rest ->
        let trimmed = String.trim line in
        if trimmed = "" || trimmed.[0] = '#' then go (lineno + 1) acc rest
        else begin
          match parse_line lineno trimmed with
          | Ok sample -> go (lineno + 1) (sample :: acc) rest
          | Error msg -> Error msg
        end
  in
  go 1 [] lines
