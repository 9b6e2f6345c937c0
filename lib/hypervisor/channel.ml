(* Deterministic lossy channel: the untrusted courier between two
   migration endpoints. Seeded splitmix64 drives every fault decision,
   so a (seed, faults) pair replays the exact same delivery schedule —
   the property the crash-at-every-step sweep and the CI smoke test
   depend on. *)

(* probability p in [0,1], decided at per-mille resolution *)
let flip r p = Splitmix.int r 1000 < int_of_float (p *. 1000.0 +. 0.5)

type faults = {
  drop : float;  (** per-message drop probability *)
  dup : float;  (** per-message duplication probability *)
  reorder : float;  (** probability a message is held back one slot *)
  corrupt : float;  (** per-message byte-corruption probability *)
  delay_max : int;  (** extra delivery delay, uniform in [0, delay_max] *)
  partition : (int * int) list;
      (** [(from, upto)] tick windows during which every send is lost *)
}

let no_faults =
  { drop = 0.0; dup = 0.0; reorder = 0.0; corrupt = 0.0; delay_max = 0;
    partition = [] }

type stats = {
  mutable sent : int;
  mutable delivered : int;
  mutable dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable partitioned : int;
}

type t = {
  rng : Splitmix.t;
  faults : faults;
  mutable now : int;
  mutable queue : (int * string) list;  (* (deliver_at, message) *)
  stats : stats;
}

let create ?(faults = no_faults) ~seed () =
  {
    rng = Splitmix.create seed;
    faults;
    now = 0;
    queue = [];
    stats =
      {
        sent = 0;
        delivered = 0;
        dropped = 0;
        duplicated = 0;
        reordered = 0;
        corrupted = 0;
        partitioned = 0;
      };
  }

let stats t = t.stats
let now t = t.now

let in_partition t =
  List.exists (fun (a, b) -> t.now >= a && t.now <= b) t.faults.partition

let corrupt_msg t msg =
  if String.length msg = 0 then msg
  else begin
    let b = Bytes.of_string msg in
    let n = 1 + Splitmix.int t.rng 3 in
    for _ = 1 to n do
      let i = Splitmix.int t.rng (Bytes.length b) in
      Bytes.set b i
        (Char.chr (Char.code (Bytes.get b i) lxor (1 + Splitmix.int t.rng 255)))
    done;
    Bytes.to_string b
  end

let enqueue t msg extra_delay =
  let delay =
    1 + extra_delay
    + (if t.faults.delay_max > 0 then Splitmix.int t.rng (t.faults.delay_max + 1)
       else 0)
  in
  t.queue <- t.queue @ [ (t.now + delay, msg) ]

let send t msg =
  let f = t.faults in
  t.stats.sent <- t.stats.sent + 1;
  if in_partition t then t.stats.partitioned <- t.stats.partitioned + 1
  else if flip t.rng f.drop then t.stats.dropped <- t.stats.dropped + 1
  else begin
    let msg =
      if flip t.rng f.corrupt then begin
        t.stats.corrupted <- t.stats.corrupted + 1;
        corrupt_msg t msg
      end
      else msg
    in
    let held =
      if flip t.rng f.reorder then begin
        t.stats.reordered <- t.stats.reordered + 1;
        1 + Splitmix.int t.rng 3
      end
      else 0
    in
    enqueue t msg held;
    if flip t.rng f.dup then begin
      t.stats.duplicated <- t.stats.duplicated + 1;
      enqueue t msg (Splitmix.int t.rng 3)
    end
  end

(* Advance the clock and return everything whose delivery time arrived,
   in queue order. *)
let tick t =
  t.now <- t.now + 1;
  let ready, later = List.partition (fun (at, _) -> at <= t.now) t.queue in
  t.queue <- later;
  let msgs = List.map snd ready in
  t.stats.delivered <- t.stats.delivered + List.length msgs;
  msgs

let pending t = List.length t.queue

let pp_stats ppf s =
  Format.fprintf ppf
    "sent %d delivered %d dropped %d dup %d reorder %d corrupt %d partitioned %d"
    s.sent s.delivered s.dropped s.duplicated s.reordered s.corrupted
    s.partitioned
