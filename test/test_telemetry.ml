(* The cross-world observability plane: span contexts and their
   propagation, the guest PC-sampling profiler, the telemetry
   exporters, per-tenant health rollups, and the recorder's overhead
   contracts (disabled paths must not allocate). *)

open Riscv

let mib n = Int64.mul (Int64.of_int n) 0x100000L

let make_trace ?(capacity = 65536) () =
  let clock = ref 0 in
  let tr =
    Metrics.Trace.create ~capacity ~clock:(fun () -> incr clock; !clock) ()
  in
  Metrics.Trace.enable tr;
  tr

(* ---------- span contexts ---------- *)

let span_tests =
  [
    Alcotest.test_case "root and child linkage" `Quick (fun () ->
        Metrics.Span.reset ();
        let r = Metrics.Span.root () in
        Alcotest.(check bool) "root not none" false (Metrics.Span.is_none r);
        Alcotest.(check int) "root has no parent" 0 r.Metrics.Span.parent_id;
        let c = Metrics.Span.child r in
        Alcotest.(check int) "child keeps trace id" r.Metrics.Span.trace_id
          c.Metrics.Span.trace_id;
        Alcotest.(check int) "child's parent is the root span"
          r.Metrics.Span.span_id c.Metrics.Span.parent_id;
        Alcotest.(check bool) "ids distinct" true
          (r.Metrics.Span.span_id <> c.Metrics.Span.span_id);
        let c2 = Metrics.Span.child Metrics.Span.none in
        Alcotest.(check bool) "child of none is a fresh root" false
          (Metrics.Span.is_none c2));
    Alcotest.test_case "to_string/of_string round-trip" `Quick (fun () ->
        Metrics.Span.reset ();
        let r = Metrics.Span.root () in
        (match Metrics.Span.of_string (Metrics.Span.to_string r) with
        | Some got -> Alcotest.(check bool) "round-trip" true (got = r)
        | None -> Alcotest.fail "of_string rejected to_string output");
        Alcotest.(check bool) "none round-trips" true
          (Metrics.Span.of_string (Metrics.Span.to_string Metrics.Span.none)
          = Some Metrics.Span.none);
        List.iter
          (fun s ->
            Alcotest.(check bool) ("garbage rejected: " ^ s) true
              (Metrics.Span.of_string s = None))
          [ ""; "x"; "1:2"; "1:2:3:4"; "a:b:c"; "1:-2:3" ]);
    Alcotest.test_case "to_args is empty only for none" `Quick (fun () ->
        Alcotest.(check int) "none has no args" 0
          (List.length (Metrics.Span.to_args Metrics.Span.none));
        let r = Metrics.Span.root () in
        Alcotest.(check int) "root has three args" 3
          (List.length (Metrics.Span.to_args r)));
  ]

(* ---------- trace: ctx stamping, dropped accounting, coalescing ---------- *)

let has_arg k v e =
  List.exists (fun (k', v') -> k = k' && v = v') e.Metrics.Trace.args

let trace_tests =
  [
    Alcotest.test_case "installed ctx stamps every event" `Quick (fun () ->
        let tr = make_trace () in
        let ctx = Metrics.Span.root () in
        Metrics.Trace.set_ctx tr ctx;
        Metrics.Trace.instant tr ~args:[ ("k", "v") ] "with-args";
        Metrics.Trace.span_begin tr "no-args";
        Metrics.Trace.clear_ctx tr;
        Metrics.Trace.span_end tr "no-args";
        match Metrics.Trace.events tr with
        | [ a; b; c ] ->
            let t = string_of_int ctx.Metrics.Span.trace_id in
            Alcotest.(check bool) "caller args kept" true (has_arg "k" "v" a);
            Alcotest.(check bool) "stamped (with args)" true
              (has_arg "trace" t a);
            Alcotest.(check bool) "stamped (no args)" true
              (has_arg "trace" t b);
            Alcotest.(check int) "unstamped after clear_ctx" 0
              (List.length c.Metrics.Trace.args)
        | evs -> Alcotest.failf "expected 3 events, got %d" (List.length evs));
    Alcotest.test_case "set_ctx is a no-op while disabled" `Quick (fun () ->
        let clock = ref 0 in
        let tr = Metrics.Trace.create ~clock:(fun () -> incr clock; !clock) () in
        Metrics.Trace.set_ctx tr (Metrics.Span.root ());
        Alcotest.(check bool) "ctx stays none" true
          (Metrics.Span.is_none (Metrics.Trace.ctx tr));
        Metrics.Trace.enable tr;
        Metrics.Trace.instant tr "e";
        match Metrics.Trace.events tr with
        | [ e ] ->
            Alcotest.(check int) "no stamp leaked" 0
              (List.length e.Metrics.Trace.args)
        | _ -> Alcotest.fail "expected one event");
    Alcotest.test_case "dropped survives clear and disable cycles" `Quick
      (fun () ->
        let tr = make_trace ~capacity:4 () in
        for i = 1 to 6 do
          Metrics.Trace.instant tr (string_of_int i)
        done;
        Alcotest.(check int) "wraparound counted" 2 (Metrics.Trace.dropped tr);
        Metrics.Trace.clear tr;
        Alcotest.(check int) "survives clear" 2 (Metrics.Trace.dropped tr);
        Alcotest.(check int) "ring empty" 0
          (List.length (Metrics.Trace.events tr));
        Metrics.Trace.disable tr;
        Metrics.Trace.enable tr;
        Alcotest.(check int) "survives disable/enable" 2
          (Metrics.Trace.dropped tr);
        for i = 1 to 5 do
          Metrics.Trace.instant tr (string_of_int i)
        done;
        Alcotest.(check int) "accumulates across clears" 3
          (Metrics.Trace.dropped tr));
    Alcotest.test_case "counter flood cannot evict span events" `Quick
      (fun () ->
        let tr = make_trace ~capacity:8 () in
        for i = 1 to 8 do
          Metrics.Trace.instant tr ("keep-" ^ string_of_int i)
        done;
        for v = 1 to 100 do
          Metrics.Trace.counter tr "flood" v
        done;
        let evs = Metrics.Trace.events tr in
        Alcotest.(check int) "ring intact" 8 (List.length evs);
        List.iter
          (fun e ->
            match e.Metrics.Trace.phase with
            | Metrics.Trace.Counter _ -> Alcotest.fail "counter evicted a span"
            | _ -> ())
          evs;
        Alcotest.(check int) "all floods coalesced" 100
          (Metrics.Trace.coalesced tr);
        Alcotest.(check int) "coalesced are not dropped" 0
          (Metrics.Trace.dropped tr));
    Alcotest.test_case
      "full-ring counter updates its surviving sample in place" `Quick
      (fun () ->
        let tr = make_trace ~capacity:4 () in
        Metrics.Trace.instant tr "a";
        Metrics.Trace.instant tr "b";
        Metrics.Trace.instant tr "c";
        Metrics.Trace.counter tr "c0" 1;
        (* ring full; victim would be instant "a" *)
        Metrics.Trace.counter tr "c0" 42;
        let evs = Metrics.Trace.events tr in
        Alcotest.(check int) "nothing evicted" 4 (List.length evs);
        let c0 =
          List.find (fun e -> e.Metrics.Trace.name = "c0") evs
        in
        (match c0.Metrics.Trace.phase with
        | Metrics.Trace.Counter v ->
            Alcotest.(check int) "value updated in place" 42 v
        | _ -> Alcotest.fail "expected a counter event");
        Alcotest.(check int) "update counted as coalesced" 1
          (Metrics.Trace.coalesced tr));
  ]

let make_platform () =
  let machine = Machine.create ~dram_size:(mib 64) () in
  let mon = Zion.Monitor.create machine in
  (match
     Zion.Monitor.register_secure_region mon
       ~base:(Int64.add Bus.dram_base (mib 32))
       ~size:(mib 8)
   with
  | Ok _ -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  mon

let make_cvm ?(image = String.make 4096 'i') mon =
  let id =
    Result.get_ok (Zion.Monitor.create_cvm mon ~nvcpus:1 ~entry_pc:0x10000L)
  in
  (match Zion.Monitor.load_image mon ~cvm:id ~gpa:0x10000L image with
  | Ok () -> ()
  | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
  ignore (Zion.Monitor.finalize_cvm mon ~cvm:id);
  id

(* ---------- overhead contracts: disabled paths allocate nothing ---------- *)

(* Allocation must not scale with the number of operations: a loose
   constant budget absorbs the Gc.minor_words float boxes and any
   one-off warmup, while catching any per-op allocation (10k ops would
   need < 0.01 words each to sneak under it). *)
let assert_no_alloc_per_op name f =
  f ();
  (* warm up *)
  let before = Gc.minor_words () in
  for _ = 1 to 10_000 do
    f ()
  done;
  let delta = Gc.minor_words () -. before in
  if delta > 100. then
    Alcotest.failf "%s allocated %.0f minor words over 10k ops" name delta

(* Heap words [f] allocates, minor and major alike (a large array goes
   straight to the major heap). The minor collections at both ends make
   the count exact: without them OCaml 5 only accounts minor
   allocations at collection time. *)
let heap_words f =
  Gc.minor ();
  let before = Gc.allocated_bytes () in
  let r = f () in
  Gc.minor ();
  ((Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8), r)

let overhead_tests =
  [
    Alcotest.test_case "disabled trace records allocate nothing" `Quick
      (fun () ->
        let clock = ref 0 in
        let tr = Metrics.Trace.create ~clock:(fun () -> !clock) () in
        let ctx = Metrics.Span.root () in
        assert_no_alloc_per_op "span_begin" (fun () ->
            Metrics.Trace.span_begin tr "x");
        assert_no_alloc_per_op "span_end" (fun () ->
            Metrics.Trace.span_end tr "x");
        assert_no_alloc_per_op "instant" (fun () ->
            Metrics.Trace.instant tr "x");
        assert_no_alloc_per_op "counter" (fun () ->
            Metrics.Trace.counter tr "x" 7);
        assert_no_alloc_per_op "set_ctx" (fun () ->
            Metrics.Trace.set_ctx tr ctx);
        Alcotest.(check int) "nothing recorded" 0 (Metrics.Trace.recorded tr));
    Alcotest.test_case "profiler non-expiry samples allocate nothing" `Quick
      (fun () ->
        (* The interpreter's countdown: the same steps allocate exactly
           the same minor words with the profiler armed (interval never
           expiring) as with it off. *)
        let m = Machine.create ~dram_size:(mib 8) () in
        let hart = Machine.hart m 0 in
        Machine.load_program m Bus.dram_base
          [
            Decode.Op_imm (Decode.Add, Asm.t0, Asm.t0, 1L); Decode.Jal (0, -4L);
          ];
        hart.Hart.pc <- Bus.dram_base;
        let words () =
          let before = Gc.minor_words () in
          ignore (Exec.run hart ~max_steps:10_000);
          Gc.minor_words () -. before
        in
        ignore (words ());
        let off = words () in
        let p = Metrics.Profile.create ~interval:1_000_000 ~nharts:1 () in
        hart.Hart.sample_in <- Metrics.Profile.interval p;
        Exec.profile := Some p;
        let armed =
          Fun.protect ~finally:(fun () -> Exec.profile := None) words
        in
        Alcotest.(check (float 0.)) "same minor words" off armed;
        Alcotest.(check int) "interval not yet expired" 0
          (Metrics.Profile.samples p));
    Alcotest.test_case "an untraced trace holds no ring" `Quick (fun () ->
        let clock () = 0 in
        let words, tr =
          heap_words (fun () ->
              Metrics.Trace.create ~capacity:1_000_000 ~clock ())
        in
        if words >= 64. then
          Alcotest.failf "create allocated %.0f words (>= 64)" words;
        Alcotest.(check int) "configured capacity" 1_000_000
          (Metrics.Trace.capacity tr);
        Alcotest.(check int) "no events" 0
          (List.length (Metrics.Trace.events tr));
        Alcotest.(check int) "recorded" 0 (Metrics.Trace.recorded tr);
        Alcotest.(check int) "dropped" 0 (Metrics.Trace.dropped tr);
        Alcotest.(check int) "coalesced" 0 (Metrics.Trace.coalesced tr);
        (* The same exports as a trace that was enabled, saw nothing and
           was switched off again. *)
        let used = Metrics.Trace.create ~capacity:1_000_000 ~clock () in
        Metrics.Trace.enable used;
        Metrics.Trace.disable used;
        let words, () = heap_words (fun () -> Metrics.Trace.clear tr) in
        if words >= 64. then
          Alcotest.failf "clear allocated %.0f words (>= 64)" words;
        Metrics.Trace.clear used;
        Alcotest.(check string) "jsonl" (Metrics.Trace.to_jsonl used)
          (Metrics.Trace.to_jsonl tr);
        Alcotest.(check string) "chrome" (Metrics.Trace.to_chrome used)
          (Metrics.Trace.to_chrome tr));
    Alcotest.test_case "the first enable allocates the ring once" `Quick
      (fun () ->
        let capacity = 100_000 in
        let tr = Metrics.Trace.create ~capacity ~clock:(fun () -> 0) () in
        let first, () = heap_words (fun () -> Metrics.Trace.enable tr) in
        if first < float_of_int capacity then
          Alcotest.failf "first enable allocated %.0f words (< %d)" first
            capacity;
        Metrics.Trace.instant tr "x";
        let again, () =
          heap_words (fun () ->
              Metrics.Trace.disable tr;
              Metrics.Trace.enable tr)
        in
        if again >= 64. then
          Alcotest.failf "disable + enable allocated %.0f words" again;
        Alcotest.(check int) "the event survives" 1
          (List.length (Metrics.Trace.events tr)));
    Alcotest.test_case "an untraced testbed allocates no ring" `Quick
      (fun () ->
        (* About 6.7k words; a 65,536-slot ring alone would be 65.5k. *)
        ignore (Platform.Testbed.create ());
        let words, tb = heap_words (fun () -> Platform.Testbed.create ()) in
        Alcotest.(check bool) "tracing off" false
          (Metrics.Trace.is_enabled
             (Zion.Monitor.trace tb.Platform.Testbed.monitor));
        if words >= 16_384. then
          Alcotest.failf "Testbed.create allocated %.0f words (>= 16384)"
            words);
  ]

(* ---------- guest PC-sampling profiler ---------- *)

let profile_tests =
  [
    Alcotest.test_case "samples every interval-th retired instruction" `Quick
      (fun () ->
        let mon = make_platform () in
        let loop =
          Asm.li Asm.t0 1000L
          @ [
              Decode.Op_imm (Decode.Add, Asm.t0, Asm.t0, -1L);
              Decode.Branch (Decode.Bne, Asm.t0, 0, -4L);
            ]
          @ Guest.Gprog.shutdown
        in
        let id = make_cvm ~image:(Asm.program loop) mon in
        (* k must not divide N: for N = m·k, a countdown left unarmed
           at enable (first sample on the first instruction) gives the
           same count *)
        let k = 9 in
        Zion.Monitor.enable_profiler ~interval:k mon;
        let h = Machine.hart (Zion.Monitor.machine mon) 0 in
        let before = h.Hart.csr.Csr.minstret in
        Fun.protect
          ~finally:(fun () -> Zion.Monitor.disable_profiler mon)
          (fun () ->
            match
              Zion.Monitor.run_vcpu mon ~hart:0 ~cvm:id ~vcpu:0
                ~max_steps:100_000
            with
            | Ok Zion.Monitor.Exit_shutdown -> ()
            | _ -> Alcotest.fail "no shutdown");
        let n = Int64.to_int (Int64.sub h.Hart.csr.Csr.minstret before) in
        Alcotest.(check bool) "the loop retired" true (n > 2000);
        Alcotest.(check bool) "k does not divide N" true (n mod k <> 0);
        match Zion.Monitor.profiler mon with
        | Some p ->
            Alcotest.(check int) "floor(N/k) samples" (n / k)
              (Metrics.Profile.samples p)
        | None -> Alcotest.fail "profiler missing");
    Alcotest.test_case "buckets by context and code page" `Quick (fun () ->
        let p = Metrics.Profile.create ~nharts:2 () in
        Metrics.Profile.set_context p ~hart:0 ~cvm:1;
        for _ = 1 to 5 do
          Metrics.Profile.record p ~hart:0 ~pc:0x10008L
        done;
        for _ = 1 to 3 do
          Metrics.Profile.record p ~hart:0 ~pc:0x11ff8L
        done;
        Metrics.Profile.set_context p ~hart:0 ~cvm:(-1);
        Metrics.Profile.record p ~hart:0 ~pc:0x8000_0000L;
        Metrics.Profile.add_region p ~cvm:1 ~lo:0x10000L ~hi:0x12000L
          "guest.text";
        (match Metrics.Profile.top_pages ~k:10 p with
        | (cvm, page, region, hits) :: _ ->
            Alcotest.(check int) "hottest is the CVM" 1 cvm;
            Alcotest.(check int64) "page aligned" 0x10000L page;
            Alcotest.(check (option string)) "region annotated"
              (Some "guest.text") region;
            Alcotest.(check int) "hits" 5 hits
        | [] -> Alcotest.fail "no pages");
        let folded = Metrics.Profile.folded p in
        Alcotest.(check bool) "folded names the region" true
          (let re = "cvm-1;guest.text;page-0x10000 5" in
           List.mem re (String.split_on_char '\n' folded));
        Alcotest.(check bool) "host samples fold under host" true
          (List.exists
             (fun l -> String.length l >= 5 && String.sub l 0 5 = "host;")
             (String.split_on_char '\n' folded)));
    Alcotest.test_case "reset clears hits but keeps regions" `Quick (fun () ->
        let p = Metrics.Profile.create ~nharts:1 () in
        Metrics.Profile.record p ~hart:0 ~pc:0x4000L;
        Metrics.Profile.reset p;
        Alcotest.(check int) "no samples" 0 (Metrics.Profile.samples p);
        Alcotest.(check int) "no pages" 0
          (List.length (Metrics.Profile.top_pages p)));
  ]

(* ---------- histogram quantile boundary audit ---------- *)

let histogram_boundary_tests =
  let tol exact = (exact *. Metrics.Histogram.max_rel_error) +. 1.0 in
  [
    Alcotest.test_case "single-sample histogram is exact at any p" `Quick
      (fun () ->
        let h = Metrics.Histogram.create () in
        Metrics.Histogram.observe h 777;
        List.iter
          (fun p ->
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "p%g" p)
              777.
              (Metrics.Histogram.quantile h p))
          [ 0.; 50.; 99.; 99.9; 100. ]);
    Alcotest.test_case "exact power-of-two sample sizes" `Quick (fun () ->
        List.iter
          (fun n ->
            let h = Metrics.Histogram.create () in
            let xs = Array.init n (fun i -> (i * 97) + 1) in
            Array.iter (Metrics.Histogram.observe h) xs;
            let floats = Array.map float_of_int xs in
            Array.sort compare floats;
            List.iter
              (fun p ->
                let exact = Metrics.Stats.percentile p floats in
                let est = Metrics.Histogram.quantile h p in
                if Float.abs (est -. exact) > tol exact then
                  Alcotest.failf "n=%d p%g: est %.2f vs exact %.2f" n p est
                    exact)
              [ 0.; 25.; 50.; 75.; 100. ])
          [ 1; 2; 4; 8; 16; 64; 256 ]);
    Alcotest.test_case "p99.9 interpolates on a small heavy-tailed sample"
      `Quick (fun () ->
        let h = Metrics.Histogram.create () in
        let xs = [ 1; 2; 3; 4; 1000 ] in
        List.iter (Metrics.Histogram.observe h) xs;
        let floats =
          Array.of_list (List.map float_of_int (List.sort compare xs))
        in
        let exact = Metrics.Stats.percentile 99.9 floats in
        let est = Metrics.Histogram.quantile h 99.9 in
        if Float.abs (est -. exact) > tol exact then
          Alcotest.failf "p99.9: est %.2f vs exact %.2f" est exact;
        Alcotest.(check bool) "pulled toward the tail" true (est > 900.));
    Alcotest.test_case "quantiles clamp to observed min/max" `Quick (fun () ->
        let h = Metrics.Histogram.create () in
        List.iter (Metrics.Histogram.observe h) [ 1000; 1001; 999_983 ];
        Alcotest.(check bool) "p0 >= min" true
          (Metrics.Histogram.quantile h 0.
          >= float_of_int (Metrics.Histogram.min_value h));
        Alcotest.(check bool) "p100 <= max" true
          (Metrics.Histogram.quantile h 100.
          <= float_of_int (Metrics.Histogram.max_value h)));
  ]

(* ---------- exporters ---------- *)

let export_tests =
  [
    Alcotest.test_case "JSON export round-trips through the parser" `Quick
      (fun () ->
        let r = Metrics.Registry.create () in
        Metrics.Registry.inc ~by:5 r "pmp.sync";
        Metrics.Registry.inc ~scope:(Metrics.Registry.Cvm 2) r "exits";
        List.iter
          (Metrics.Registry.observe ~scope:(Metrics.Registry.Cvm 2) r
             "entry_cycles")
          [ 100; 200; 300 ];
        let j =
          Metrics.Export.registry_to_json
            ~extra:[ ("note", Metrics.Export.Str "hi \"there\"\n") ]
            r
        in
        let s = Metrics.Export.json_to_string j in
        (match Metrics.Export.parse_json s with
        | Ok parsed ->
            Alcotest.(check bool) "structurally identical" true (parsed = j)
        | Error e -> Alcotest.failf "parse failed: %s" e);
        match Metrics.Export.member "counters" j with
        | Some (Metrics.Export.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "no counters array");
    Alcotest.test_case "prometheus export round-trips through the parser"
      `Quick (fun () ->
        let r = Metrics.Registry.create () in
        Metrics.Registry.inc ~by:7 r "ecall.run_vcpu";
        List.iter
          (Metrics.Registry.observe ~scope:(Metrics.Registry.Cvm 1) r
             "request_cycles")
          [ 10; 20; 30; 40 ];
        let text = Metrics.Export.registry_to_prometheus r in
        match Metrics.Export.parse_prometheus text with
        | Error e -> Alcotest.failf "parse failed: %s" e
        | Ok samples ->
            let find name pred =
              List.exists
                (fun (n, labels, v) -> n = name && pred labels v)
                samples
            in
            Alcotest.(check bool) "counter with value" true
              (find "zion_ecall_run_vcpu_total" (fun _ v -> v = 7.));
            Alcotest.(check bool) "summary count labelled by cvm" true
              (find "zion_request_cycles_count" (fun labels v ->
                   List.mem_assoc "cvm" labels && v = 4.));
            Alcotest.(check bool) "quantile sample present" true
              (find "zion_request_cycles" (fun labels _ ->
                   List.mem_assoc "quantile" labels)));
    Alcotest.test_case "per-CVM channel counters survive both exporters"
      `Quick (fun () ->
        let r = Metrics.Registry.create () in
        let inc ~cvm ~by name =
          Metrics.Registry.inc ~scope:(Metrics.Registry.Cvm cvm) ~by r name
        in
        inc ~cvm:1 ~by:2 "sm.chan.grants";
        inc ~cvm:1 ~by:1 "sm.chan.peer_rejects";
        inc ~cvm:2 ~by:2 "sm.chan.accepts";
        inc ~cvm:2 ~by:1 "sm.chan.revokes";
        inc ~cvm:2 ~by:1 "sm.chan.degradations";
        (* Prometheus text: each counter under its cvm label. *)
        (match
           Metrics.Export.parse_prometheus
             (Metrics.Export.registry_to_prometheus r)
         with
        | Error e -> Alcotest.failf "prometheus parse failed: %s" e
        | Ok samples ->
            let expect name cvm v =
              Alcotest.(check bool)
                (Printf.sprintf "%s{cvm=%d} = %g" name cvm v)
                true
                (List.exists
                   (fun (n, labels, got) ->
                     n = name
                     && List.assoc_opt "cvm" labels = Some (string_of_int cvm)
                     && got = v)
                   samples)
            in
            expect "zion_sm_chan_grants_total" 1 2.;
            expect "zion_sm_chan_peer_rejects_total" 1 1.;
            expect "zion_sm_chan_accepts_total" 2 2.;
            expect "zion_sm_chan_revokes_total" 2 1.;
            expect "zion_sm_chan_degradations_total" 2 1.);
        (* JSON: structural round-trip plus the counter entries. *)
        let j = Metrics.Export.registry_to_json r in
        match Metrics.Export.parse_json (Metrics.Export.json_to_string j) with
        | Error e -> Alcotest.failf "json parse failed: %s" e
        | Ok parsed ->
            Alcotest.(check bool) "structurally identical" true (parsed = j);
            let has_counter name v =
              match Metrics.Export.member "counters" parsed with
              | Some (Metrics.Export.List l) ->
                  List.exists
                    (fun c ->
                      Metrics.Export.member "name" c
                      = Some (Metrics.Export.Str name)
                      && Metrics.Export.member "value" c
                         = Some (Metrics.Export.Num v))
                    l
              | _ -> false
            in
            Alcotest.(check bool) "grants in json" true
              (has_counter "sm.chan.grants" 2.);
            Alcotest.(check bool) "degradations in json" true
              (has_counter "sm.chan.degradations" 1.));
    Alcotest.test_case "parser rejects malformed input" `Quick (fun () ->
        List.iter
          (fun s ->
            match Metrics.Export.parse_json s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ ""; "{"; "[1,]"; "{\"a\":}"; "tru"; "\"unterminated" ];
        List.iter
          (fun s ->
            match Metrics.Export.parse_prometheus s with
            | Error _ -> ()
            | Ok _ -> Alcotest.failf "accepted %S" s)
          [ "name_only"; "metric{unclosed 3"; "metric notanumber" ]);
  ]

(* ---------- per-tenant health rollups ---------- *)

let health_tests =
  [
    Alcotest.test_case "snapshot rolls up state and request quantiles"
      `Quick (fun () ->
        let mon = make_platform () in
        let id = make_cvm mon in
        List.iter
          (Metrics.Registry.observe ~scope:(Metrics.Registry.Cvm id)
             (Zion.Monitor.registry mon)
             "request_cycles")
          [ 100; 200; 300; 400 ];
        let h = Zion.Monitor.health_snapshot mon in
        match h.Zion.Monitor.h_cvms with
        | [ t ] ->
            Alcotest.(check int) "cvm id" id t.Zion.Monitor.th_cvm;
            Alcotest.(check string) "state" "runnable" t.Zion.Monitor.th_state;
            Alcotest.(check bool) "p50 from registry" true
              (t.Zion.Monitor.th_request_p50 > 0.);
            Alcotest.(check bool) "p99 >= p50" true
              (t.Zion.Monitor.th_request_p99 >= t.Zion.Monitor.th_request_p50);
            Alcotest.(check bool) "not stalled yet" false
              t.Zion.Monitor.th_stalled;
            Alcotest.(check bool) "not quarantined" false
              t.Zion.Monitor.th_quarantined
        | l -> Alcotest.failf "expected 1 tenant, got %d" (List.length l));
    Alcotest.test_case "a silent live CVM trips the stall detector" `Quick
      (fun () ->
        let mon = make_platform () in
        let id = make_cvm mon in
        let ledger = (Zion.Monitor.machine mon).Machine.ledger in
        Metrics.Ledger.advance ledger 20_000_000;
        let h = Zion.Monitor.health_snapshot ~stall_cycles:10_000_000 mon in
        let t = List.find (fun t -> t.Zion.Monitor.th_cvm = id) h.Zion.Monitor.h_cvms in
        Alcotest.(check bool) "stalled" true t.Zion.Monitor.th_stalled;
        Alcotest.(check bool) "progress baseline recorded" true
          (t.Zion.Monitor.th_last_progress >= 0);
        (* A bigger threshold un-trips it. *)
        let h' = Zion.Monitor.health_snapshot ~stall_cycles:100_000_000 mon in
        let t' =
          List.find (fun t -> t.Zion.Monitor.th_cvm = id) h'.Zion.Monitor.h_cvms
        in
        Alcotest.(check bool) "threshold respected" false
          t'.Zion.Monitor.th_stalled);
  ]

(* ---------- migration: ctx on the wire, no leaked spans ---------- *)

let migration_tests =
  [
    Alcotest.test_case "packet carries and MAC-covers the span context"
      `Quick (fun () ->
        let ctx = Metrics.Span.root () in
        let pkt =
          {
            Zion.Migrate_proto.p_session = "s";
            p_epoch = 1;
            p_ctx = ctx;
            p_payload = Zion.Migrate_proto.Query;
          }
        in
        (match Zion.Migrate_proto.decode (Zion.Migrate_proto.encode pkt) with
        | Ok got ->
            Alcotest.(check bool) "ctx round-trips" true
              (got.Zion.Migrate_proto.p_ctx = ctx)
        | Error e -> Alcotest.failf "decode failed: %s" e);
        (* Corrupting any context byte must break the MAC. *)
        let raw = Bytes.of_string (Zion.Migrate_proto.encode pkt) in
        let ctx_off = 4 + 1 + 4 + 4 + 1 in
        (* magic|kind|epoch|slen|session("s") *)
        for i = ctx_off to ctx_off + 11 do
          let b = Bytes.copy raw in
          Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
          match Zion.Migrate_proto.decode (Bytes.to_string b) with
          | Error _ -> ()
          | Ok _ -> Alcotest.failf "ctx flip at %d accepted" i
        done);
    Alcotest.test_case "destination adopts the source's context" `Quick
      (fun () ->
        let src = make_platform () in
        let dst = make_platform () in
        let id = make_cvm src in
        let ctx = Metrics.Span.root () in
        let source =
          match
            Zion.Migrate_proto.source_start ~ctx src ~cvm:id ~session:"adopt"
          with
          | Ok s -> s
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        in
        Alcotest.(check bool) "source keeps the ctx" true
          (Zion.Migrate_proto.source_ctx source = ctx);
        let out = Zion.Migrate_proto.source_step source ~now:0 ~inbox:[] in
        Alcotest.(check bool) "source emitted" true (out <> []);
        let dest = Zion.Migrate_proto.dest_create dst ~session:"adopt" in
        Alcotest.(check bool) "dest starts with none" true
          (Metrics.Span.is_none (Zion.Migrate_proto.dest_ctx dest));
        ignore (Zion.Migrate_proto.dest_step dest ~now:0 ~inbox:out);
        Alcotest.(check bool) "dest adopted the ctx" true
          (Zion.Migrate_proto.dest_ctx dest = ctx));
    Alcotest.test_case "crashy traced migration leaks no open spans" `Quick
      (fun () ->
        let src = make_platform () in
        let dst = make_platform () in
        Metrics.Trace.enable (Zion.Monitor.trace src);
        Metrics.Trace.enable (Zion.Monitor.trace dst);
        let id = make_cvm src in
        (match
           Hypervisor.Migrator.run
             ~faults:{ Hypervisor.Channel.no_faults with drop = 0.1 }
             ~seed:7
             ~crash:{ Hypervisor.Migrator.at = 5; side = Hypervisor.Migrator.Source }
             ~src ~dst ~cvm:id ~session:"leak-check" ()
         with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "migration did not terminate: %s" e);
        let check_balanced name mon =
          let tr = Zion.Monitor.trace mon in
          let begins, ends =
            List.fold_left
              (fun (b, e) ev ->
                match ev.Metrics.Trace.phase with
                | Metrics.Trace.Span_begin -> (b + 1, e)
                | Metrics.Trace.Span_end -> (b, e + 1)
                | _ -> (b, e))
              (0, 0) (Metrics.Trace.events tr)
          in
          Alcotest.(check int) (name ^ ": B/E balanced") begins ends;
          Alcotest.(check bool) (name ^ ": no ctx left installed") true
            (Metrics.Span.is_none (Metrics.Trace.ctx tr))
        in
        check_balanced "source" src;
        check_balanced "dest" dst);
  ]

(* ---------- end to end: the request's span tree ---------- *)

let str_arg j k =
  match Metrics.Export.member k j with
  | Some (Metrics.Export.Str s) -> Some s
  | _ -> None

let e2e_tests =
  [
    Alcotest.test_case "a traced Redis request forms a connected span tree"
      `Slow (fun () ->
        let tb, stats =
          Platform.Exp_redis.run_traced ~requests:24 ~profile_interval:16 ()
        in
        Alcotest.(check bool) "guest shut down" true
          (stats.Platform.Exp_redis.t_outcome = Hypervisor.Kvm.C_shutdown);
        Alcotest.(check int) "all requests served"
          stats.Platform.Exp_redis.t_requests
          stats.Platform.Exp_redis.t_completed;
        let mon = tb.Platform.Testbed.monitor in
        let chrome = Metrics.Trace.to_chrome (Zion.Monitor.trace mon) in
        let events =
          match Metrics.Export.parse_json chrome with
          | Ok j -> (
              match Metrics.Export.member "traceEvents" j with
              | Some (Metrics.Export.List evs) -> evs
              | _ -> Alcotest.fail "no traceEvents")
          | Error e -> Alcotest.failf "chrome export unparsable: %s" e
        in
        let named name =
          List.filter
            (fun e -> str_arg e "name" = Some name)
            events
        in
        let trace_of e =
          match Metrics.Export.member "args" e with
          | Some args -> str_arg args "trace"
          | None -> None
        in
        (* Pick the first request's trace id and find its tree. *)
        let root =
          match named "resp.request" with
          | e :: _ -> (
              match trace_of e with
              | Some t -> t
              | None -> Alcotest.fail "resp.request unstamped")
          | [] -> Alcotest.fail "no resp.request span"
        in
        let in_tree name =
          List.exists (fun e -> trace_of e = Some root) (named name)
        in
        Alcotest.(check bool) "world-switch entry in tree" true
          (in_tree "cvm_entry");
        Alcotest.(check bool) "world-switch exit in tree" true
          (in_tree "cvm_exit");
        Alcotest.(check bool) "virtio completion in tree" true
          (in_tree "net.rx_complete");
        (* Profiler found the hot guest pages. *)
        (match Zion.Monitor.profiler mon with
        | Some p ->
            let top = Metrics.Profile.top_pages ~k:3 p in
            Alcotest.(check int) "top-3 hot pages" 3 (List.length top);
            List.iter
              (fun (cvm, _, region, hits) ->
                Alcotest.(check int) "attributed to the CVM" 1 cvm;
                Alcotest.(check (option string)) "in guest text"
                  (Some "guest.text") region;
                Alcotest.(check bool) "nonzero hits" true (hits > 0))
              top
        | None -> Alcotest.fail "profiler missing");
        (* And the health rollup sees the tenant's quantiles. *)
        let h = Zion.Monitor.health_snapshot mon in
        match h.Zion.Monitor.h_cvms with
        | t :: _ ->
            Alcotest.(check bool) "switches counted" true
              (t.Zion.Monitor.th_exits > 0);
            Alcotest.(check bool) "request p99 populated" true
              (t.Zion.Monitor.th_request_p99 > 0.)
        | [] -> Alcotest.fail "no tenants in snapshot");
    Alcotest.test_case "every traced workload exports one JSON schema" `Quick
      (fun () ->
        List.iter
          (fun (name, w) ->
            let r = Platform.Telemetry.run ~n:4 w in
            Alcotest.(check bool) (name ^ ": shut down") true
              (r.Platform.Telemetry.outcome = Hypervisor.Kvm.C_shutdown);
            let j =
              match
                Metrics.Export.parse_json
                  (Platform.Telemetry.render Platform.Telemetry.Json r)
              with
              | Ok j -> j
              | Error e -> Alcotest.failf "%s: unparsable JSON: %s" name e
            in
            List.iter
              (fun k ->
                Alcotest.(check bool) (name ^ ": " ^ k) true
                  (Metrics.Export.member k j <> None))
              [ "counters"; "histograms"; "trace"; "ledger" ];
            let redis = w = Platform.Telemetry.Redis in
            Alcotest.(check bool) (name ^ ": run member") redis
              (Metrics.Export.member "run" j <> None);
            Alcotest.(check bool) (name ^ ": folded profile") redis
              (Platform.Telemetry.render Platform.Telemetry.Folded r <> ""))
          Platform.Telemetry.workloads);
  ]

let suite =
  [
    ("telemetry.span", span_tests);
    ("telemetry.trace", trace_tests);
    ("telemetry.overhead", overhead_tests);
    ("telemetry.profile", profile_tests);
    ("telemetry.histogram", histogram_boundary_tests);
    ("telemetry.export", export_tests);
    ("telemetry.health", health_tests);
    ("telemetry.migration", migration_tests);
    ("telemetry.e2e", e2e_tests);
  ]
