type t = { value : float; p25 : float; p75 : float; samples : float list }

let sorted xs = List.sort compare xs |> Array.of_list

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Summary.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Python's statistics.quantiles(xs, n=4), default exclusive method. *)
let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then (median xs, median xs)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.
    in
    (q 1, q 3)

let of_samples xs =
  let p25, p75 = quartiles xs in
  { value = median xs; p25; p75; samples = xs }

let exact v = { value = v; p25 = v; p75 = v; samples = [ v ] }
let spread s = if s.value = 0. then 0. else (s.p75 -. s.p25) /. Float.abs s.value

(* Nearest-rank percentile of integer samples. *)
let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0
  else a.(max 0 (min (n - 1) (int_of_float (Float.ceil (p /. 100. *. float_of_int n)) - 1)))
