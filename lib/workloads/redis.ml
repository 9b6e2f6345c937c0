let mix = Rv8_kernels.mix

type entry =
  | Str of string
  | List of {
      front : string list;
      back : string list;  (* reversed *)
      len : int;  (* both halves: a push replies without walking them *)
    }
  | Set of (string, unit) Hashtbl.t

type t = { table : (string, entry) Hashtbl.t; ops : Opcount.t }

let create () = { table = Hashtbl.create 1024; ops = Opcount.zero () }
let ops t = t.ops

let dbsize t = Hashtbl.length t.table

let locality = { Opcount.hot_pages = 12; hot_dlines = 64; hot_ilines = 48 }

(* Per-request instruction-mix building blocks. *)
let parse_mix_per_byte = mix ~alu:3 ~load:2 ~branch:2 ()
let dispatch_mix = mix ~alu:30 ~load:12 ~branch:10 ~jump:4 ()
let hash_lookup_mix = mix ~alu:40 ~load:18 ~branch:8 ()
let hash_insert_mix = mix ~alu:50 ~load:20 ~store:12 ~branch:8 ()
let list_op_mix = mix ~alu:20 ~load:8 ~store:6 ~branch:4 ()
let encode_mix_per_byte = mix ~alu:2 ~store:1 ~branch:1 ()
let int_parse_mix = mix ~alu:12 ~load:4 ~branch:4 ()

let charge_bytes t per n = Opcount.add_scaled t.ops per (max n 1)

let wrong_type = Resp.Error "WRONGTYPE Operation against a key holding the wrong kind of value"
let ok = Resp.Simple "OK"

let get_list t key =
  match Hashtbl.find_opt t.table key with
  | Some (List l) -> Ok (l.front, l.back, l.len)
  | Some _ -> Stdlib.Error wrong_type
  | None -> Ok ([], [], 0)

let set_list t key front back len =
  Hashtbl.replace t.table key (List { front; back; len })

(* The first [n] elements of [l], and the rest. *)
let split_at n l =
  let rec go n acc = function
    | x :: rest when n > 0 -> go (n - 1) (x :: acc) rest
    | rest -> (List.rev acc, rest)
  in
  go n [] l

let get_set t key =
  match Hashtbl.find_opt t.table key with
  | Some (Set s) -> Ok s
  | Some _ -> Stdlib.Error wrong_type
  | None ->
      let s = Hashtbl.create 8 in
      Hashtbl.replace t.table key (Set s);
      Ok s

let exec t args =
  Opcount.add t.ops dispatch_mix;
  match List.map String.uppercase_ascii (match args with c :: _ -> [ c ] | [] -> []) , args with
  | [ "PING" ], _ -> Resp.Simple "PONG"
  | [ "SET" ], [ _; key; value ] ->
      Opcount.add t.ops hash_insert_mix;
      charge_bytes t encode_mix_per_byte (String.length value);
      Hashtbl.replace t.table key (Str value);
      ok
  | [ "GET" ], [ _; key ] -> begin
      Opcount.add t.ops hash_lookup_mix;
      match Hashtbl.find_opt t.table key with
      | Some (Str v) ->
          charge_bytes t encode_mix_per_byte (String.length v);
          Resp.Bulk (Some v)
      | Some _ -> wrong_type
      | None -> Resp.Bulk None
    end
  | [ "INCR" ], [ _; key ] -> begin
      Opcount.add t.ops hash_lookup_mix;
      Opcount.add t.ops int_parse_mix;
      match Hashtbl.find_opt t.table key with
      | None ->
          Hashtbl.replace t.table key (Str "1");
          Resp.Integer 1L
      | Some (Str v) -> begin
          match Int64.of_string_opt v with
          | Some i ->
              let i = Int64.add i 1L in
              Hashtbl.replace t.table key (Str (Int64.to_string i));
              Resp.Integer i
          | None -> Resp.Error "ERR value is not an integer or out of range"
        end
      | Some _ -> wrong_type
    end
  | [ "LPUSH" ], _ :: key :: values when values <> [] -> begin
      Opcount.add t.ops hash_lookup_mix;
      Opcount.add_scaled t.ops list_op_mix (List.length values);
      match get_list t key with
      | Stdlib.Error e -> e
      | Ok (f, b, len) ->
          let len = len + List.length values in
          set_list t key (List.rev_append values f) b len;
          Resp.Integer (Int64.of_int len)
    end
  | [ "RPUSH" ], _ :: key :: values when values <> [] -> begin
      Opcount.add t.ops hash_lookup_mix;
      Opcount.add_scaled t.ops list_op_mix (List.length values);
      match get_list t key with
      | Stdlib.Error e -> e
      | Ok (f, b, len) ->
          let len = len + List.length values in
          set_list t key f (List.rev_append values b) len;
          Resp.Integer (Int64.of_int len)
    end
  | [ "LPOP" ], [ _; key ] -> begin
      Opcount.add t.ops hash_lookup_mix;
      Opcount.add t.ops list_op_mix;
      match get_list t key with
      | Stdlib.Error e -> e
      | Ok ([], [], _) -> Resp.Bulk None
      | Ok ([], b, len) -> begin
          (* Refill [front] with only the older half of [back] (all
             [len] elements are in it), so pops that alternate ends
             stay amortised O(1). *)
          let b, older = split_at (len / 2) b in
          match List.rev older with
          | x :: f ->
              set_list t key f b (len - 1);
              Resp.Bulk (Some x)
          | [] -> Resp.Bulk None
        end
      | Ok (x :: f, b, len) ->
          set_list t key f b (len - 1);
          Resp.Bulk (Some x)
    end
  | [ "RPOP" ], [ _; key ] -> begin
      Opcount.add t.ops hash_lookup_mix;
      Opcount.add t.ops list_op_mix;
      match get_list t key with
      | Stdlib.Error e -> e
      | Ok ([], [], _) -> Resp.Bulk None
      | Ok (f, x :: b, len) ->
          set_list t key f b (len - 1);
          Resp.Bulk (Some x)
      | Ok (f, [], len) -> begin
          let f, newer = split_at (len / 2) f in
          match List.rev newer with
          | x :: b ->
              set_list t key f b (len - 1);
              Resp.Bulk (Some x)
          | [] -> Resp.Bulk None
        end
    end
  | [ "SADD" ], _ :: key :: members when members <> [] -> begin
      Opcount.add t.ops hash_lookup_mix;
      match get_set t key with
      | Stdlib.Error e -> e
      | Ok s ->
          let added = ref 0 in
          List.iter
            (fun m ->
              Opcount.add t.ops hash_insert_mix;
              if not (Hashtbl.mem s m) then begin
                Hashtbl.replace s m ();
                incr added
              end)
            members;
          Resp.Integer (Int64.of_int !added)
    end
  | [ "SPOP" ], [ _; key ] -> begin
      Opcount.add t.ops hash_lookup_mix;
      match Hashtbl.find_opt t.table key with
      | Some (Set s) -> begin
          let victim = Hashtbl.fold (fun k () _ -> Some k) s None in
          match victim with
          | Some m ->
              Opcount.add t.ops hash_insert_mix;
              Hashtbl.remove s m;
              Resp.Bulk (Some m)
          | None -> Resp.Bulk None
        end
      | Some _ -> wrong_type
      | None -> Resp.Bulk None
    end
  | [ "MSET" ], _ :: kvs when List.length kvs mod 2 = 0 && kvs <> [] ->
      let rec go = function
        | k :: v :: rest ->
            Opcount.add t.ops hash_insert_mix;
            Hashtbl.replace t.table k (Str v);
            go rest
        | _ -> ()
      in
      go kvs;
      ok
  | [ "DEL" ], _ :: keys when keys <> [] ->
      let n = ref 0 in
      List.iter
        (fun k ->
          Opcount.add t.ops hash_lookup_mix;
          if Hashtbl.mem t.table k then begin
            Hashtbl.remove t.table k;
            incr n
          end)
        keys;
      Resp.Integer (Int64.of_int !n)
  | [ "EXISTS" ], [ _; key ] ->
      Opcount.add t.ops hash_lookup_mix;
      Resp.Integer (if Hashtbl.mem t.table key then 1L else 0L)
  | [ "LRANGE" ], [ _; key; start_s; stop_s ] -> begin
      Opcount.add t.ops hash_lookup_mix;
      match
        (get_list t key, int_of_string_opt start_s, int_of_string_opt stop_s)
      with
      | Stdlib.Error e, _, _ -> e
      | Ok _, None, _ | Ok _, _, None ->
          Resp.Error "ERR value is not an integer or out of range"
      | Ok (f, b, _), Some start, Some stop ->
          let all = f @ List.rev b in
          let n = List.length all in
          let norm i = if i < 0 then max 0 (n + i) else min i (n - 1) in
          let start = norm start and stop = norm stop in
          Opcount.add_scaled t.ops list_op_mix (max (stop - start + 1) 1);
          let items =
            List.filteri (fun i _ -> i >= start && i <= stop) all
          in
          Resp.Array (List.map (fun s -> Resp.Bulk (Some s)) items)
    end
  | [ "DBSIZE" ], [ _ ] -> Resp.Integer (Int64.of_int (Hashtbl.length t.table))
  | [ "FLUSHALL" ], [ _ ] ->
      Hashtbl.reset t.table;
      ok
  | [ cmd ], _ ->
      Resp.Error (Printf.sprintf "ERR wrong number of arguments for '%s'" cmd)
  | _, _ -> Resp.Error "ERR unknown command"

let handle t request =
  charge_bytes t parse_mix_per_byte (String.length request);
  let reply =
    match Resp.decode_command request with
    | Ok args when args <> [] -> exec t args
    | Ok _ -> Resp.Error "ERR empty command"
    | Stdlib.Error e -> Resp.Error ("ERR protocol error: " ^ e)
  in
  let encoded = Resp.encode reply in
  charge_bytes t encode_mix_per_byte (String.length encoded);
  encoded

let handle_traced ?trace t request =
  match trace with
  | Some tr when Metrics.Trace.is_enabled tr ->
      (* One root span context per request. It stays installed on the
         trace after we return, so the device completion and the next
         world-switch exit are stamped with the request that caused
         them; the next request's root replaces it. *)
      let ctx = Metrics.Span.root () in
      Metrics.Trace.set_ctx tr ctx;
      let op =
        match Resp.decode_command request with
        | Ok (c :: _) -> String.uppercase_ascii c
        | _ -> "?"
      in
      Metrics.Trace.span_begin tr
        ~args:[ ("op", op); ("bytes", string_of_int (String.length request)) ]
        "resp.request";
      let reply = handle t request in
      Metrics.Trace.span_end tr
        ~args:[ ("reply_bytes", string_of_int (String.length reply)) ]
        "resp.request";
      reply
  | _ -> handle t request

let benchmark_ops =
  [ "PING"; "SET"; "GET"; "INCR"; "LPUSH"; "RPUSH"; "LPOP"; "RPOP"; "SADD" ]

let request_for ~op ~key_space ~seq =
  let key = Printf.sprintf "key:%06d" (seq mod key_space) in
  let value = "xxx" (* redis-benchmark -d 3 default *) in
  let args =
    match op with
    | "PING" -> [ "PING" ]
    | "SET" -> [ "SET"; key; value ]
    | "GET" -> [ "GET"; key ]
    | "INCR" -> [ "INCR"; "counter:" ^ string_of_int (seq mod key_space) ]
    | "LPUSH" -> [ "LPUSH"; "mylist"; value ]
    | "RPUSH" -> [ "RPUSH"; "mylist"; value ]
    | "LPOP" -> [ "LPOP"; "mylist" ]
    | "RPOP" -> [ "RPOP"; "mylist" ]
    | "SADD" -> [ "SADD"; "myset"; "element:" ^ string_of_int seq ]
    | other -> [ other ]
  in
  Resp.encode_command args
