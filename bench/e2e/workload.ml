type arm = Cvm | Normal

type t = {
  name : string;
  op : string;
  prepare : seed:int -> scale:float -> arm -> Obs.t -> int;
}

let sized ~scale full = max 1 (int_of_float (Float.round (float_of_int full *. scale)))

let shuffle rng a =
  for i = Array.length a - 1 downto 1 do
    let j = Workloads.Prng.int_below rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- x
  done

let create_guest obs tb arm ~image =
  match arm with
  | Cvm -> Result.map (fun h -> Obs.Cvm h) (Obs.create_cvm obs tb ~image)
  | Normal -> Result.map (fun vm -> Obs.Nvm vm) (Obs.create_nvm obs tb ~image)
