(* Live end-to-end benchmark: see README.md.

     dune exec bench/e2e/main.exe -- --seed 1 --out BENCH_e2e.json
     dune exec bench/e2e/main.exe -- --workload resp_net --seed 2 --trace 0
     dune exec bench/e2e/main.exe -- --compare BASE.json NEW.json *)

open E2e

let workload = ref ""
let seed = ref 1
let seconds = ref 12
let trace = ref 1
let out = ref ""
let compare_files = ref []

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME run one workload in this process");
    ("--seed", Arg.Set_int seed, "N input seed (default 1)");
    ("--seconds", Arg.Set_int seconds, "N timed CVM passes run at least this long (default 12)");
    ("--trace", Arg.Set_int trace, "0|1 run the traced pass; 1 prints the per-layer metrics last (default 1)");
    ("--out", Arg.Set_string out, "FILE write the full result as JSON");
    ( "--compare",
      Arg.Tuple
        (let base = ref "" in
         [ Arg.Set_string base;
           Arg.String (fun next -> compare_files := [ !base; next ]) ]),
      "BASE NEW compare two result files" );
  ]

let write_json path json =
  let oc = open_out path in
  output_string oc (Metrics.Export.json_to_string json);
  output_char oc '\n';
  close_out oc

let run_one w =
  let traced = !trace <> 0 in
  let r =
    Runner.run w ~seed:!seed ~seconds:(float_of_int !seconds) ~trace:traced
      ~scale:1.0
      ?chrome:
        (if traced then Some (Printf.sprintf "BENCH_e2e_trace_%s.json" w.Workload.name)
         else None)
  in
  Runner.print r;
  if !out <> "" then write_json !out (Runner.to_json r);
  print_endline (Runner.result_line r ~trace:traced);
  if not (Runner.correct r) then exit 1

(* Each workload in its own process, so peak RSS and GC counts are its
   own. *)
let run_all () =
  let out = if !out = "" then "BENCH_e2e.json" else !out in
  let part w = Printf.sprintf "%s_%s.json" (Filename.remove_extension out) w.Workload.name in
  let records =
    List.map
      (fun w ->
        flush stdout;
        let args =
          [| Sys.executable_name; "--workload"; w.Workload.name;
             "--seed"; string_of_int !seed; "--seconds"; string_of_int !seconds;
             "--trace"; string_of_int !trace; "--out"; part w |]
        in
        let pid =
          Unix.create_process Sys.executable_name args Unix.stdin Unix.stdout
            Unix.stderr
        in
        let status = snd (Unix.waitpid [] pid) in
        let record =
          match Metrics.Export.parse_json (In_channel.with_open_bin (part w) In_channel.input_all) with
          | Ok j -> j
          | Error e -> failwith (part w ^ ": " ^ e)
        in
        (status = Unix.WEXITED 0, record))
      Suite.all
  in
  let open Metrics.Export in
  write_json out
    (Obj [ ("seed", num_of_int !seed); ("workloads", List (List.map snd records)) ]);
  let int k j = match member k j with Some (Num x) -> int_of_float x | _ -> 0 in
  let metrics =
    List.concat_map
      (fun (_, r) ->
        let w = match member "workload" r with Some (Str s) -> s | _ -> "?" in
        match member "end_to_end" r with
        | Some (Obj ms) ->
            List.map
              (fun (name, m) ->
                ( w ^ "." ^ name,
                  Obj
                    (List.filter (fun (k, _) -> k = "value" || k = "unit")
                       (match m with Obj kv -> kv | _ -> [])) ))
              ms
        | _ -> [])
      records
  in
  let ok = List.for_all fst records in
  Printf.printf "wrote %s\n" out;
  print_endline
    (json_to_string
       (Obj
          [ ("correct", Bool ok);
            ("attempted", num_of_int (List.fold_left (fun a (_, r) -> a + int "attempted" r) 0 records));
            ("failed", num_of_int (List.fold_left (fun a (_, r) -> a + int "failed" r) 0 records));
            ("metrics", Obj metrics) ]));
  if not ok then exit 1

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "main.exe [--workload NAME] [--seed N] [--seconds N] [--trace 0|1] [--out FILE]\n\
     main.exe --compare BASE.json NEW.json";
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "--trace takes 0 or 1";
    exit 2
  end;
  try
    match !compare_files with
    | [ base; next ] ->
        if not (Compare.run ~benchmark:"BENCHMARK.json" base next) then exit 1
    | _ -> (
        if !workload = "" then run_all ()
        else
          match Suite.find !workload with
          | Some w -> run_one w
          | None ->
              prerr_endline ("unknown workload " ^ !workload);
              exit 2)
  with Layers.Unmapped c ->
    prerr_endline ("ledger category missing from the layer table: " ^ c);
    exit 2
