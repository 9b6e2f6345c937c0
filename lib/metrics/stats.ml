type summary = {
  n : int;
  mean : float;
  stddev : float;
  min : float;
  max : float;
  p50 : float;
  p95 : float;
  p99 : float;
}

let mean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.mean: empty sample";
  Array.fold_left ( +. ) 0. xs /. float_of_int n

let stddev xs =
  let n = Array.length xs in
  if n < 2 then 0.
  else begin
    let m = mean xs in
    let acc = Array.fold_left (fun a x -> a +. ((x -. m) *. (x -. m))) 0. xs in
    sqrt (acc /. float_of_int (n - 1))
  end

let percentile p xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.percentile: empty sample";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  let sorted = Array.copy xs in
  Array.sort compare sorted;
  let rank = p /. 100. *. float_of_int (n - 1) in
  let lo = int_of_float (floor rank) in
  let hi = int_of_float (ceil rank) in
  if lo = hi then sorted.(lo)
  else begin
    let frac = rank -. float_of_int lo in
    (sorted.(lo) *. (1. -. frac)) +. (sorted.(hi) *. frac)
  end

let interleaved_pairs ~pairs run =
  let off = Array.make pairs 0. and on = Array.make pairs 0. in
  for i = 0 to pairs - 1 do
    let outer = i mod 2 = 1 in
    let a = run ~on:outer in
    let b = run ~on:(not outer) in
    let c = run ~on:(not outer) in
    let d = run ~on:outer in
    let o = Float.min a d and m = Float.min b c in
    if outer then (on.(i) <- o; off.(i) <- m) else (off.(i) <- o; on.(i) <- m)
  done;
  (off, on)

let summarize xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.summarize: empty sample";
  {
    n;
    mean = mean xs;
    stddev = stddev xs;
    min = Array.fold_left min xs.(0) xs;
    max = Array.fold_left max xs.(0) xs;
    p50 = percentile 50. xs;
    p95 = percentile 95. xs;
    p99 = percentile 99. xs;
  }

let of_ints xs = Array.map float_of_int xs

let geomean xs =
  let n = Array.length xs in
  if n = 0 then invalid_arg "Stats.geomean: empty sample";
  let acc =
    Array.fold_left
      (fun a x ->
        if x <= 0. then invalid_arg "Stats.geomean: non-positive sample";
        a +. log x)
      0. xs
  in
  exp (acc /. float_of_int n)

let pct_change ~baseline v =
  if baseline = 0. then invalid_arg "Stats.pct_change: zero baseline";
  (v -. baseline) /. baseline *. 100.

let pp_summary ppf s =
  Format.fprintf ppf
    "n=%d mean=%.1f sd=%.1f min=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f" s.n
    s.mean s.stddev s.min s.p50 s.p95 s.p99 s.max
