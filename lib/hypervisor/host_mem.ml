(* Free space is a sorted list of (base, npages) runs; allocation scans
   first-fit. Page counts stay small in the simulation, so simplicity
   beats an O(log n) structure. *)

type t = {
  base : int64;
  npages : int;
  mutable free : (int64 * int) list; (* sorted by base *)
}

let page = 4096L

let create ~base ~size =
  if Int64.rem base page <> 0L || Int64.rem size page <> 0L || size <= 0L
  then invalid_arg "Host_mem.create: page-aligned base and size required";
  let npages = Int64.to_int (Int64.div size page) in
  { base; npages; free = [ (base, npages) ] }

let run_end (b, n) = Int64.add b (Int64.mul (Int64.of_int n) page)

let rec insert_run runs ((b, n) as r) =
  match runs with
  | [] -> [ r ]
  | ((b0, _) as r0) :: rest ->
      if Riscv.Xword.ult b b0 then r :: runs
      else r0 :: insert_run rest (b, n)

(* Merge adjacent runs after insertion. *)
let normalize runs =
  let rec go = function
    | ((b0, n0) as r0) :: ((b1, n1) :: rest as tail) ->
        if run_end r0 = b1 then go ((b0, n0 + n1) :: rest)
        else r0 :: go tail
    | short -> short
  in
  go runs

let alloc_pages t ?(align = page) n =
  if n <= 0 then invalid_arg "Host_mem.alloc_pages: non-positive count";
  if Int64.rem align page <> 0L || align <= 0L then
    invalid_arg "Host_mem.alloc_pages: alignment must be a page multiple";
  let want = Int64.of_int n in
  let rec scan acc = function
    | [] -> None
    | ((b, cnt) as r) :: rest ->
        let aligned =
          let m = Int64.rem b align in
          if m = 0L then b else Int64.add b (Int64.sub align m)
        in
        let skip = Int64.div (Int64.sub aligned b) page in
        if Int64.of_int cnt >= Int64.add skip want then begin
          (* Split the run into [before][alloc][after]. *)
          let before =
            if skip > 0L then [ (b, Int64.to_int skip) ] else []
          in
          let after_base = Int64.add aligned (Int64.mul want page) in
          let after_cnt = cnt - Int64.to_int skip - n in
          let after = if after_cnt > 0 then [ (after_base, after_cnt) ] else [] in
          t.free <- List.rev_append acc (before @ after @ rest);
          Some aligned
        end
        else scan (r :: acc) rest
  in
  scan [] t.free

let in_range t b n =
  (not (Riscv.Xword.ult b t.base))
  && not
       (Riscv.Xword.ult
          (Int64.add t.base (Int64.mul (Int64.of_int t.npages) page))
          (Int64.add b (Int64.mul (Int64.of_int n) page)))

let overlaps (b0, n0) (b1, n1) =
  Riscv.Xword.ult b0 (run_end (b1, n1)) && Riscv.Xword.ult b1 (run_end (b0, n0))

let free_pages t b n =
  if n <= 0 || Int64.rem b page <> 0L then
    invalid_arg "Host_mem.free_pages: bad arguments";
  if not (in_range t b n) then
    invalid_arg "Host_mem.free_pages: outside managed range";
  if List.exists (fun r -> overlaps r (b, n)) t.free then
    invalid_arg "Host_mem.free_pages: double free";
  t.free <- normalize (insert_run t.free (b, n))

let free_bytes t =
  List.fold_left
    (fun acc (_, n) -> Int64.add acc (Int64.mul (Int64.of_int n) page))
    0L t.free

let total_bytes t = Int64.mul (Int64.of_int t.npages) page
