(* Smoke test: every workload twice at a tiny size. Simulated metrics
   and allocation per op must repeat exactly, the output checks must
   pass, the result must survive a JSON round trip, and every metric
   must be declared in BENCHMARK.json. *)

open E2e
module J = Metrics.Export

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("smoke: " ^ s); exit 1) fmt

let declared path =
  let text = In_channel.with_open_bin path In_channel.input_all in
  match J.parse_json text with
  | Error e -> fail "%s: %s" path e
  | Ok j ->
      let names section =
        match J.member section j with
        | Some (J.List l) ->
            List.filter_map
              (fun m -> match J.member "name" m with Some (J.Str n) -> Some n | _ -> None)
              l
        | _ -> fail "%s: no %s list" path section
      in
      (names "end_to_end", names "per_layer")

let valid_name n =
  n <> ""
  && String.for_all
       (fun c ->
         match c with
         | 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true
         | _ -> false)
       n

(* Everything that must repeat exactly from run to run. *)
let repeatable (r : Runner.result) =
  List.filter
    (fun (name, _) ->
      name = "host.alloc_words_per_op"
      || (match Catalog.find name with
         | Some d -> d.Catalog.kind = Catalog.Sim
         | None -> false))
    (r.Runner.end_to_end @ r.Runner.per_layer)
  |> List.map (fun (name, (s : Summary.t)) -> (name, s.Summary.value))

let () =
  let e2e, layer = declared Sys.argv.(1) in
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun w ->
      let run () =
        Runner.run w ~seed:7 ~seconds:0. ~trace:true ~scale:0.001
      in
      let a = run () and b = run () in
      let name = w.Workload.name in
      List.iter
        (fun (r : Runner.result) ->
          if not (Runner.correct r) then
            fail "%s: %d of %d ops failed: %s" name r.Runner.failed
              r.Runner.attempted (String.concat "; " r.Runner.failures))
        [ a; b ];
      List.iter2
        (fun (n, x) (_, y) ->
          if x <> y then fail "%s: %s is %.17g then %.17g" name n x y)
        (repeatable a) (repeatable b);
      let check section names declared =
        List.iter
          (fun n ->
            if not (valid_name n) then fail "%s: bad metric name %S" name n;
            if not (List.mem n declared) then
              fail "%s: %s metric %s is not in BENCHMARK.json" name section n)
          names;
        List.iter
          (fun n ->
            if not (List.mem n names) then
              fail "%s: BENCHMARK.json declares %s, which is not reported" name n)
          declared
      in
      check "end_to_end" (List.map fst a.Runner.end_to_end) e2e;
      check "per_layer" (List.map fst a.Runner.per_layer) layer;
      let text = J.json_to_string (Runner.to_json a) in
      (match J.parse_json text with
      | Ok j when J.json_to_string j = text -> ()
      | Ok _ -> fail "%s: JSON changed on a round trip" name
      | Error e -> fail "%s: result JSON does not parse: %s" name e);
      match J.parse_json (Runner.result_line a ~trace:false) with
      | Ok _ -> ()
      | Error e -> fail "%s: result line does not parse: %s" name e)
    Suite.all;
  Printf.printf "e2e smoke: %d workloads twice in %.1f s\n" (List.length Suite.all)
    (Unix.gettimeofday () -. t0)
