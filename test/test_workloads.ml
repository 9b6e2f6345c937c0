(* Tests for the workload layer: RV8 kernels, CoreMark, RESP, the Redis
   server and the IOZone model. *)

let opcount_tests =
  [
    Alcotest.test_case "add and add_scaled accumulate" `Quick (fun () ->
        let a = Workloads.Opcount.zero () in
        let x =
          { (Workloads.Opcount.zero ()) with Workloads.Opcount.alu = 2;
            load = 1 }
        in
        Workloads.Opcount.add a x;
        Workloads.Opcount.add_scaled a x 3;
        Alcotest.(check int) "alu" 8 a.Workloads.Opcount.alu;
        Alcotest.(check int) "load" 4 a.Workloads.Opcount.load;
        Alcotest.(check int) "total" 12 (Workloads.Opcount.total a));
    Alcotest.test_case "cycles prices by class" `Quick (fun () ->
        let c = Riscv.Cost.default in
        let x =
          { (Workloads.Opcount.zero ()) with Workloads.Opcount.div = 2;
            alu = 10 }
        in
        Alcotest.(check int)
          "priced"
          ((2 * c.Riscv.Cost.div) + (10 * c.Riscv.Cost.alu))
          (Workloads.Opcount.cycles c x));
    Alcotest.test_case "refill bounded by capacities" `Quick (fun () ->
        let c = Riscv.Cost.default in
        let huge =
          { Workloads.Opcount.hot_pages = 10_000; hot_dlines = 10_000;
            hot_ilines = 10_000 }
        in
        let expected =
          (c.Riscv.Cost.tlb_capacity * c.Riscv.Cost.tlb_refill_per_page)
          + (2 * c.Riscv.Cost.dcache_lines * c.Riscv.Cost.cache_refill_per_line)
        in
        Alcotest.(check int)
          "capped" expected
          (Workloads.Opcount.refill_cycles c huge));
  ]

let opcount_props =
  [
    QCheck.Test.make ~name:"scale by 2 doubles totals (within rounding)"
      ~count:100
      QCheck.(quad small_nat small_nat small_nat small_nat)
      (fun (a, b, c, d) ->
        let x =
          { Workloads.Opcount.alu = a; mul = b; div = c; load = d;
            store = a; branch = b; jump = c }
        in
        let y = Workloads.Opcount.scale x 2.0 in
        Workloads.Opcount.total y = 2 * Workloads.Opcount.total x);
  ]

let prng_tests =
  [
    Alcotest.test_case "deterministic across instances" `Quick (fun () ->
        let a = Workloads.Prng.create ~seed:42L in
        let b = Workloads.Prng.create ~seed:42L in
        for _ = 1 to 100 do
          Alcotest.(check int64)
            "same stream" (Workloads.Prng.next a) (Workloads.Prng.next b)
        done);
    Alcotest.test_case "int_below in range" `Quick (fun () ->
        let r = Workloads.Prng.create ~seed:7L in
        for _ = 1 to 1000 do
          let v = Workloads.Prng.int_below r 17 in
          Alcotest.(check bool) "range" true (v >= 0 && v < 17)
        done);
  ]

(* ---------- RV8 kernels ---------- *)

let rv8_tests =
  [
    Alcotest.test_case "all kernels run and report work" `Slow (fun () ->
        List.iter
          (fun (r : Workloads.Rv8.result) ->
            Alcotest.(check bool)
              (r.Workloads.Rv8.name ^ " has ops")
              true
              (Workloads.Opcount.total r.Workloads.Rv8.ops > 0);
            Alcotest.(check bool)
              (r.Workloads.Rv8.name ^ " has checksum")
              true
              (String.length r.Workloads.Rv8.checksum > 0))
          (Workloads.Rv8.run_all ~scale:1));
    Alcotest.test_case "checksums are deterministic" `Slow (fun () ->
        List.iter
          (fun name ->
            let a = Workloads.Rv8.run name ~scale:1 in
            let b = Workloads.Rv8.run name ~scale:1 in
            Alcotest.(check string)
              name a.Workloads.Rv8.checksum b.Workloads.Rv8.checksum)
          [ "aes"; "qsort"; "miniz" ]);
    Alcotest.test_case "primes counts pi(400000)" `Quick (fun () ->
        let r = Workloads.Rv8.run "primes" ~scale:1 in
        Alcotest.(check string) "count" "33860" r.Workloads.Rv8.checksum);
    Alcotest.test_case "unknown kernel rejected" `Quick (fun () ->
        Alcotest.(check bool)
          "raises" true
          (match Workloads.Rv8.run "frobnicate" ~scale:1 with
          | _ -> false
          | exception Invalid_argument _ -> true));
    Alcotest.test_case "Table I baselines present for every kernel" `Quick
      (fun () ->
        List.iter
          (fun name ->
            let r = Workloads.Rv8.run name ~scale:1 in
            Alcotest.(check bool)
              (name ^ " baseline")
              true
              (r.Workloads.Rv8.target_gcycles > 0.))
          Workloads.Rv8.names);
  ]

let coremark_tests =
  [
    Alcotest.test_case "CRC matches the reference" `Quick (fun () ->
        let r = Workloads.Coremark.run ~iterations:2 in
        Alcotest.(check int)
          "crc" Workloads.Coremark.reference_crc r.Workloads.Coremark.crc);
    Alcotest.test_case "work scales linearly with iterations" `Quick
      (fun () ->
        let r1 = Workloads.Coremark.run ~iterations:1 in
        let r3 = Workloads.Coremark.run ~iterations:3 in
        Alcotest.(check int)
          "3x ops"
          (3 * Workloads.Opcount.total r1.Workloads.Coremark.ops)
          (Workloads.Opcount.total r3.Workloads.Coremark.ops));
  ]

(* ---------- RESP ---------- *)

let resp_roundtrip v =
  match Workloads.Resp.decode (Workloads.Resp.encode v) with
  | Ok (v', _) -> v' = v
  | Error _ -> false

let resp_tests =
  [
    Alcotest.test_case "scalar round trips" `Quick (fun () ->
        List.iter
          (fun v ->
            Alcotest.(check bool)
              (Format.asprintf "%a" Workloads.Resp.pp v)
              true (resp_roundtrip v))
          [
            Workloads.Resp.Simple "OK";
            Workloads.Resp.Error "ERR boom";
            Workloads.Resp.Integer 42L;
            Workloads.Resp.Integer (-7L);
            Workloads.Resp.Bulk (Some "hello\r\nworld");
            Workloads.Resp.Bulk (Some "");
            Workloads.Resp.Bulk None;
            Workloads.Resp.Array [];
            Workloads.Resp.Array
              [
                Workloads.Resp.Bulk (Some "SET");
                Workloads.Resp.Array [ Workloads.Resp.Integer 1L ];
              ];
          ]);
    Alcotest.test_case "command encode/decode" `Quick (fun () ->
        Alcotest.(check (result (list string) string))
          "roundtrip"
          (Ok [ "SET"; "key"; "val" ])
          (Workloads.Resp.decode_command
             (Workloads.Resp.encode_command [ "SET"; "key"; "val" ])));
    Alcotest.test_case "malformed input is an error, not an exception"
      `Quick (fun () ->
        List.iter
          (fun s ->
            Alcotest.(check bool)
              (Printf.sprintf "%S" s)
              true
              (Result.is_error (Workloads.Resp.decode s)))
          [ ""; "x"; "$5\r\nab\r\n"; "*2\r\n+a\r\n"; ":abc\r\n"; "+no-crlf" ]);
  ]

let resp_props =
  [
    QCheck.Test.make ~name:"arbitrary commands round-trip" ~count:200
      QCheck.(list_of_size Gen.(1 -- 5) (string_of_size Gen.(0 -- 20)))
      (fun args ->
        args = []
        || Workloads.Resp.decode_command (Workloads.Resp.encode_command args)
           = Ok args);
  ]

(* ---------- Redis ---------- *)

let exec srv args = Workloads.Redis.exec srv args

let redis_tests =
  [
    Alcotest.test_case "SET then GET" `Quick (fun () ->
        let s = Workloads.Redis.create () in
        Alcotest.(check bool)
          "set ok" true
          (exec s [ "SET"; "a"; "1" ] = Workloads.Resp.Simple "OK");
        Alcotest.(check bool)
          "get" true
          (exec s [ "GET"; "a" ] = Workloads.Resp.Bulk (Some "1"));
        Alcotest.(check bool)
          "missing" true
          (exec s [ "GET"; "nope" ] = Workloads.Resp.Bulk None));
    Alcotest.test_case "INCR semantics" `Quick (fun () ->
        let s = Workloads.Redis.create () in
        Alcotest.(check bool)
          "fresh" true
          (exec s [ "INCR"; "n" ] = Workloads.Resp.Integer 1L);
        Alcotest.(check bool)
          "again" true
          (exec s [ "INCR"; "n" ] = Workloads.Resp.Integer 2L);
        ignore (exec s [ "SET"; "s"; "abc" ]);
        Alcotest.(check bool)
          "non-integer" true
          (match exec s [ "INCR"; "s" ] with
          | Workloads.Resp.Error _ -> true
          | _ -> false));
    Alcotest.test_case "list push/pop ordering" `Quick (fun () ->
        let s = Workloads.Redis.create () in
        ignore (exec s [ "RPUSH"; "l"; "a" ]);
        ignore (exec s [ "RPUSH"; "l"; "b" ]);
        ignore (exec s [ "LPUSH"; "l"; "z" ]);
        (* list is z a b *)
        Alcotest.(check bool)
          "lpop z" true
          (exec s [ "LPOP"; "l" ] = Workloads.Resp.Bulk (Some "z"));
        Alcotest.(check bool)
          "rpop b" true
          (exec s [ "RPOP"; "l" ] = Workloads.Resp.Bulk (Some "b"));
        Alcotest.(check bool)
          "lpop a" true
          (exec s [ "LPOP"; "l" ] = Workloads.Resp.Bulk (Some "a"));
        Alcotest.(check bool)
          "empty" true
          (exec s [ "LPOP"; "l" ] = Workloads.Resp.Bulk None));
    Alcotest.test_case "LRANGE window" `Quick (fun () ->
        let s = Workloads.Redis.create () in
        ignore (exec s [ "RPUSH"; "l"; "a" ]);
        ignore (exec s [ "RPUSH"; "l"; "b" ]);
        ignore (exec s [ "RPUSH"; "l"; "c" ]);
        Alcotest.(check bool)
          "middle" true
          (exec s [ "LRANGE"; "l"; "1"; "2" ]
          = Workloads.Resp.Array
              [ Workloads.Resp.Bulk (Some "b"); Workloads.Resp.Bulk (Some "c") ]);
        Alcotest.(check bool)
          "negative index" true
          (exec s [ "LRANGE"; "l"; "0"; "-1" ]
          = Workloads.Resp.Array
              [
                Workloads.Resp.Bulk (Some "a"); Workloads.Resp.Bulk (Some "b");
                Workloads.Resp.Bulk (Some "c");
              ]));
    Alcotest.test_case "sets deduplicate" `Quick (fun () ->
        let s = Workloads.Redis.create () in
        Alcotest.(check bool)
          "first add" true
          (exec s [ "SADD"; "s"; "x"; "y" ] = Workloads.Resp.Integer 2L);
        Alcotest.(check bool)
          "dup" true
          (exec s [ "SADD"; "s"; "x" ] = Workloads.Resp.Integer 0L);
        (match exec s [ "SPOP"; "s" ] with
        | Workloads.Resp.Bulk (Some m) ->
            Alcotest.(check bool) "member" true (m = "x" || m = "y")
        | _ -> Alcotest.fail "expected member");
        ignore (exec s [ "SPOP"; "s" ]);
        Alcotest.(check bool)
          "drained" true
          (exec s [ "SPOP"; "s" ] = Workloads.Resp.Bulk None));
    Alcotest.test_case "type confusion rejected" `Quick (fun () ->
        let s = Workloads.Redis.create () in
        ignore (exec s [ "SET"; "k"; "v" ]);
        Alcotest.(check bool)
          "lpush on string" true
          (match exec s [ "LPUSH"; "k"; "x" ] with
          | Workloads.Resp.Error _ -> true
          | _ -> false));
    Alcotest.test_case "MSET, DEL, EXISTS, DBSIZE, FLUSHALL" `Quick
      (fun () ->
        let s = Workloads.Redis.create () in
        ignore (exec s [ "MSET"; "a"; "1"; "b"; "2" ]);
        Alcotest.(check int) "dbsize" 2 (Workloads.Redis.dbsize s);
        Alcotest.(check bool)
          "exists" true
          (exec s [ "EXISTS"; "a" ] = Workloads.Resp.Integer 1L);
        Alcotest.(check bool)
          "del" true
          (exec s [ "DEL"; "a"; "zz" ] = Workloads.Resp.Integer 1L);
        ignore (exec s [ "FLUSHALL" ]);
        Alcotest.(check int) "flushed" 0 (Workloads.Redis.dbsize s));
    Alcotest.test_case "handle survives malformed requests" `Quick
      (fun () ->
        let s = Workloads.Redis.create () in
        let reply = Workloads.Redis.handle s "garbage\r\n" in
        Alcotest.(check bool)
          "error reply" true
          (String.length reply > 0 && reply.[0] = '-'));
    Alcotest.test_case "handle accumulates instruction mix" `Quick
      (fun () ->
        let s = Workloads.Redis.create () in
        ignore
          (Workloads.Redis.handle s
             (Workloads.Resp.encode_command [ "SET"; "k"; "v" ]));
        Alcotest.(check bool)
          "nonzero ops" true
          (Workloads.Opcount.total (Workloads.Redis.ops s) > 0));
    Alcotest.test_case "alternating pops stay linear" `Quick (fun () ->
        (* A list built by RPUSH sits whole in one half, so alternating
           pops keep finding one half empty. Refilling it with the whole
           other half each time is quadratic: about 450M words here,
           where one-sided pops take about 1.8M. *)
        let s = Workloads.Redis.create () in
        let req args = Workloads.Resp.encode_command args in
        let push = req [ "RPUSH"; "mylist"; "xxx" ] in
        for _ = 1 to 20_000 do
          ignore (Workloads.Redis.handle s push)
        done;
        let pops =
          Array.init 10_000 (fun i ->
              req [ (if i mod 2 = 0 then "LPOP" else "RPOP"); "mylist" ])
        in
        Gc.minor ();
        let before = Gc.minor_words () in
        Array.iter
          (fun r ->
            if Workloads.Redis.handle s r = "$-1\r\n" then
              Alcotest.fail "popped an empty list")
          pops;
        let words = Gc.minor_words () -. before in
        if words >= 4e6 then
          Alcotest.failf "10,000 alternating pops allocated %.0f words" words;
        match exec s [ "LRANGE"; "mylist"; "0"; "-1" ] with
        | Workloads.Resp.Array l ->
            Alcotest.(check int) "10,000 left" 10_000 (List.length l)
        | _ -> Alcotest.fail "LRANGE did not reply with an array");
  ]

(* Runs [cmds] on a fresh server against an OCaml list model of key
   "l": every reply, then [LRANGE l 0 -1], must match the model. *)
let matches_list_model cmds =
  let s = Workloads.Redis.create () in
  let bulk x = Workloads.Resp.Bulk x in
  let step model cmd =
    let model, expected =
      match (cmd, model) with
      | "LPUSH" :: _ :: vs, _ ->
          let m = List.rev_append vs model in
          (m, Workloads.Resp.Integer (Int64.of_int (List.length m)))
      | "RPUSH" :: _ :: vs, _ ->
          let m = model @ vs in
          (m, Workloads.Resp.Integer (Int64.of_int (List.length m)))
      | [ "LPOP"; _ ], x :: rest -> (rest, bulk (Some x))
      | [ "RPOP"; _ ], _ :: _ ->
          let r = List.rev model in
          (List.rev (List.tl r), bulk (Some (List.hd r)))
      | _ -> (model, bulk None)
    in
    let reply = exec s cmd in
    if reply <> expected then
      QCheck.Test.fail_reportf "%s: wrong reply" (String.concat " " cmd);
    model
  in
  let model = List.fold_left step [] cmds in
  exec s [ "LRANGE"; "l"; "0"; "-1" ]
  = Workloads.Resp.Array (List.map (fun v -> bulk (Some v)) model)

let list_commands gen =
  QCheck.make
    ~print:(fun cmds -> String.concat "; " (List.map (String.concat " ") cmds))
    gen

let list_values =
  QCheck.Gen.(list_size (1 -- 3) (string_size ~gen:(char_range 'a' 'z') (1 -- 2)))

let redis_props =
  [
    QCheck.Test.make ~name:"RPUSH then LPOP drains FIFO" ~count:50
      QCheck.(list_of_size Gen.(1 -- 20) (string_of_size Gen.(1 -- 8)))
      (fun items ->
        let s = Workloads.Redis.create () in
        List.iter (fun x -> ignore (exec s [ "RPUSH"; "q"; x ])) items;
        List.for_all
          (fun x -> exec s [ "LPOP"; "q" ] = Workloads.Resp.Bulk (Some x))
          items);
    QCheck.Test.make ~name:"SET then GET returns the value" ~count:100
      QCheck.(pair (string_of_size Gen.(1 -- 16)) (string_of_size Gen.(0 -- 64)))
      (fun (k, v) ->
        let s = Workloads.Redis.create () in
        ignore (exec s [ "SET"; k; v ]);
        exec s [ "GET"; k ] = Workloads.Resp.Bulk (Some v));
    QCheck.Test.make ~name:"list commands match a list model" ~count:300
      (list_commands
         QCheck.Gen.(
           list_size (0 -- 40)
             (frequency
                [
                  (2, map (fun vs -> "LPUSH" :: "l" :: vs) list_values);
                  (2, map (fun vs -> "RPUSH" :: "l" :: vs) list_values);
                  (1, return [ "LPOP"; "l" ]);
                  (1, return [ "RPOP"; "l" ]);
                ])))
      matches_list_model;
    (* A list built from one end sits whole in one half; pops from both
       ends in turn then refill each half from the other. *)
    QCheck.Test.make
      ~name:"one-sided lists popped from both ends match a list model"
      ~count:300
      (list_commands
         QCheck.Gen.(
           oneofl [ "LPUSH"; "RPUSH" ] >>= fun push ->
           list_size (0 -- 20) list_values >>= fun pushes ->
           oneofl [ ("LPOP", "RPOP"); ("RPOP", "LPOP") ] >>= fun (a, b) ->
           int_range 0 70 >|= fun pops ->
           List.map (fun vs -> push :: "l" :: vs) pushes
           @ List.init pops (fun i -> [ (if i mod 2 = 0 then a else b); "l" ])))
      matches_list_model;
  ]

(* ---------- IOZone ---------- *)

(* Reference model for [Iozone.run], which computes in closed form what
   this loop computes one record at a time. Each record pays one
   syscall's bookkeeping and a full record's memcpy; a threshold-sized
   device request goes out whenever enough syncable bytes have
   accumulated, and the remainder goes out last. The mixes and cache
   limits are the model's calibration. *)
let iozone_oracle ~op ~file_kb ~record_kb =
  let mix = Workloads.Rv8_kernels.mix in
  let per_record_word = mix ~alu:1 ~load:1 ~store:1 () in
  let per_record_fixed =
    mix ~alu:1300 ~load:500 ~store:250 ~branch:270 ~jump:110 ()
  in
  let file_bytes = file_kb * 1024 in
  let record_bytes = min (record_kb * 1024) file_bytes in
  let nrecords = (file_bytes + record_bytes - 1) / record_bytes in
  let sync_bytes =
    match op with
    | Workloads.Iozone.Write -> max 0 (file_bytes - (32 * 1024 * 1024))
    | Workloads.Iozone.Read -> max 0 (file_bytes - (128 * 1024 * 1024))
  in
  let threshold = Workloads.Iozone.flush_threshold in
  let ops = Workloads.Opcount.zero () in
  let events = ref [] in
  let synced = ref 0 and processed = ref 0 in
  for _ = 1 to nrecords do
    Workloads.Opcount.add ops per_record_fixed;
    Workloads.Opcount.add_scaled ops per_record_word ((record_bytes + 7) / 8);
    processed := !processed + record_bytes;
    for _ = 1 to (min sync_bytes !processed - !synced) / threshold do
      events := Workloads.Iozone.Io_request { bytes = threshold } :: !events;
      synced := !synced + threshold
    done
  done;
  let rest = sync_bytes - !synced in
  if rest > 0 then
    events := Workloads.Iozone.Io_request { bytes = rest } :: !events;
  (ops, List.rev !events)

let iozone_matches_oracle (op, file_kb, record_kb) =
  let r = Workloads.Iozone.run ~op ~file_kb ~record_kb in
  let ops, events = iozone_oracle ~op ~file_kb ~record_kb in
  r.Workloads.Iozone.ops = ops && r.Workloads.Iozone.events = events

let iozone_case_to_string (op, file_kb, record_kb) =
  Printf.sprintf "%s file=%d KiB record=%d KiB"
    (match op with
    | Workloads.Iozone.Write -> "write"
    | Workloads.Iozone.Read -> "read")
    file_kb record_kb

let iozone_tests =
  [
    Alcotest.test_case "small files issue no device I/O" `Quick (fun () ->
        let r =
          Workloads.Iozone.run ~op:Workloads.Iozone.Write ~file_kb:1024
            ~record_kb:8
        in
        Alcotest.(check int)
          "no events" 0
          (List.length r.Workloads.Iozone.events));
    Alcotest.test_case "large writes sync past the dirty limit" `Quick
      (fun () ->
        let r =
          Workloads.Iozone.run ~op:Workloads.Iozone.Write ~file_kb:65536
            ~record_kb:128
        in
        (* 64 MiB file - 32 MiB dirty limit = 32 MiB over 128 KiB
           requests *)
        Alcotest.(check int)
          "request count" 256
          (List.length r.Workloads.Iozone.events);
        List.iter
          (fun (Workloads.Iozone.Io_request { bytes }) ->
            Alcotest.(check int) "sized" Workloads.Iozone.flush_threshold bytes)
          r.Workloads.Iozone.events);
    Alcotest.test_case "reads sync only beyond the page cache" `Quick
      (fun () ->
        let small =
          Workloads.Iozone.run ~op:Workloads.Iozone.Read ~file_kb:65536
            ~record_kb:128
        in
        Alcotest.(check int)
          "cached read" 0
          (List.length small.Workloads.Iozone.events);
        let big =
          Workloads.Iozone.run ~op:Workloads.Iozone.Read ~file_kb:262144
            ~record_kb:128
        in
        Alcotest.(check bool)
          "uncached read does I/O" true
          (List.length big.Workloads.Iozone.events > 0));
    Alcotest.test_case "smaller records mean more CPU work" `Quick
      (fun () ->
        let w8 =
          Workloads.Iozone.run ~op:Workloads.Iozone.Write ~file_kb:4096
            ~record_kb:8
        in
        let w512 =
          Workloads.Iozone.run ~op:Workloads.Iozone.Write ~file_kb:4096
            ~record_kb:512
        in
        Alcotest.(check bool)
          "more ops" true
          (Workloads.Opcount.total w8.Workloads.Iozone.ops
          > Workloads.Opcount.total w512.Workloads.Iozone.ops));
    Alcotest.test_case "matches the record loop on Figure 4" `Quick
      (fun () ->
        let fig4 =
          List.concat_map
            (fun op ->
              List.concat_map
                (fun file_kb ->
                  List.map
                    (fun record_kb -> (op, file_kb, record_kb))
                    Workloads.Iozone.record_sizes_kb)
                Workloads.Iozone.file_sizes_kb)
            [ Workloads.Iozone.Write; Workloads.Iozone.Read ]
        in
        Alcotest.(check int) "48 points" 48 (List.length fig4);
        (* plus a record larger than the file, and records that do not
           divide a file past the dirty limit or the page cache *)
        List.iter
          (fun case ->
            Alcotest.(check bool)
              (iozone_case_to_string case)
              true (iozone_matches_oracle case))
          (fig4
          @ [
              (Workloads.Iozone.Write, 100, 512);
              (Workloads.Iozone.Write, 33_000, 7);
              (Workloads.Iozone.Read, 140_000, 300);
            ]));
  ]

let iozone_props =
  [
    QCheck.Test.make ~name:"matches the record loop on random sizes"
      ~count:300
      (QCheck.make ~print:iozone_case_to_string
         QCheck.Gen.(
           triple
             (oneofl [ Workloads.Iozone.Write; Workloads.Iozone.Read ])
             (oneof [ 1 -- 1024; 1 -- 600_000 ])
             (1 -- 2048)))
      iozone_matches_oracle;
  ]

let suite =
  [
    ("workloads.opcount", opcount_tests);
    ("workloads.opcount.properties", List.map QCheck_alcotest.to_alcotest opcount_props);
    ("workloads.prng", prng_tests);
    ("workloads.rv8", rv8_tests);
    ("workloads.coremark", coremark_tests);
    ("workloads.resp", resp_tests);
    ("workloads.resp.properties", List.map QCheck_alcotest.to_alcotest resp_props);
    ("workloads.redis", redis_tests);
    ("workloads.redis.properties", List.map QCheck_alcotest.to_alcotest redis_props);
    ("workloads.iozone", iozone_tests);
    ("workloads.iozone.properties", List.map QCheck_alcotest.to_alcotest iozone_props);
  ]
