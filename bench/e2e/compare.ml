open Metrics.Export

let read_json path =
  let ic = open_in_bin path in
  let s = Fun.protect ~finally:(fun () -> close_in ic) (fun () ->
      really_input_string ic (in_channel_length ic)) in
  match parse_json s with
  | Ok j -> j
  | Error e -> failwith (Printf.sprintf "%s: %s" path e)

(* Workload records in a result file: a full run, one workload, or a
   JSON list of either (e.g. two runs pooled as one baseline). *)
let rec records = function
  | List l -> List.concat_map records l
  | Obj _ as j -> (
      match member "workloads" j with Some (List l) -> l | _ -> [ j ])
  | _ -> failwith "not a benchmark result"

let str k j = match member k j with Some (Str s) -> s | _ -> ""

let nums = function
  | Some (List l) -> List.filter_map (function Num x -> Some x | _ -> None) l
  | _ -> []

(* One metric pooled over every record of a workload: simulated values
   must agree; host samples are concatenated. *)
let pooled recs ~workload ~section (d : Catalog.def) =
  let entries =
    List.filter_map
      (fun r ->
        if str "workload" r <> workload then None
        else Option.bind (member section r) (member d.Catalog.name))
      recs
  in
  if entries = [] then None
  else
    match d.Catalog.kind with
    | Catalog.Sim ->
        Some
          (Summary.of_samples
             (List.filter_map
                (fun e -> match member "value" e with Some (Num x) -> Some x | _ -> None)
                entries))
    | Catalog.Host ->
        Some (Summary.of_samples (List.concat_map (fun e -> nums (member "samples" e)) entries))

let bounds path =
  match member "end_to_end" (read_json path) with
  | Some (List l) ->
      List.filter_map
        (fun m ->
          match (member "name" m, member "bound" m) with
          | Some (Str n), Some (Num b) -> Some (n, b)
          | _ -> None)
        l
  | _ -> failwith (path ^ ": no end_to_end metrics")

(* Worse-is-positive relative change. *)
let worsening (d : Catalog.def) ~base ~next =
  let rel = (next -. base) /. Float.abs base in
  match d.Catalog.better with Catalog.Lower -> rel | Catalog.Higher -> -.rel

let verdict (d : Catalog.def) ~bound (b : Summary.t) (n : Summary.t) =
  match d.Catalog.kind with
  | Catalog.Sim ->
      if List.sort_uniq compare b.samples <> [ b.value ] then "inconsistent"
      else if b.value = n.value then "same"
      else if worsening d ~base:b.value ~next:n.value > 0. then "worse"
      else "better"
  | Catalog.Host ->
      let w = worsening d ~base:b.value ~next:n.value in
      let spread = Float.max (Summary.spread b) (Summary.spread n) in
      let all_better =
        List.for_all
          (fun x -> List.for_all (fun y -> worsening d ~base:y ~next:x < 0.) b.samples)
          n.samples
      in
      if spread > bound then (if all_better then "better" else "unresolved")
      else if w > bound then "worse"
      else if -.w > spread then "better"
      else "same"

let run ~benchmark base_path new_path =
  let base = records (read_json base_path) and next = records (read_json new_path) in
  let bounds = bounds benchmark in
  let worse = ref 0 in
  let show (s : Summary.t) = Printf.sprintf "%.6g [%.6g, %.6g]" s.value s.p25 s.p75 in
  List.iter
    (fun w ->
      Printf.printf "== %s\n" w;
      let row ~section (d : Catalog.def) =
        match
          ( pooled base ~workload:w ~section d,
            pooled next ~workload:w ~section d )
        with
        | Some b, Some n ->
            (* Per-layer metrics have no bound: any move beyond their
               spread counts. *)
            let bound = Option.value ~default:0. (List.assoc_opt d.Catalog.name bounds) in
            let v = verdict d ~bound b n in
            let e2e = section = "end_to_end" in
            if e2e && v = "worse" then incr worse;
            if e2e || v <> "same" then
              Printf.printf "  %-36s %-30s -> %-30s %s\n" d.Catalog.name (show b)
                (show n) v
        | _ -> ()
      in
      List.iter (row ~section:"end_to_end") Catalog.end_to_end;
      List.iter (row ~section:"per_layer") Catalog.per_layer)
    (List.sort_uniq compare (List.map (str "workload") next));
  !worse = 0
