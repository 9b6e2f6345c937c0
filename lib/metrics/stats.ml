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
