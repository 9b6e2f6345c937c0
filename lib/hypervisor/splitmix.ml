let gamma = 0x9E3779B97F4A7C15L

(* The two xor-shift-multiply rounds of the output function. *)
let scramble z =
  let z =
    Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L
  in
  Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
    0x94D049BB133111EBL

let finish z = Int64.logxor z (Int64.shift_right_logical z 31)

type t = { mutable s : int64 }

let create seed = { s = Int64.of_int seed }

let next_u64 r =
  r.s <- Int64.add r.s gamma;
  finish (scramble r.s)

let below bits n =
  Int64.to_int (Int64.rem (Int64.logand bits Int64.max_int) (Int64.of_int n))

let int r n = if n <= 0 then 0 else below (next_u64 r) n

let chained state =
  let z = scramble (Int64.add state gamma) in
  (z, finish z)
