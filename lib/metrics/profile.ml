type region = { r_cvm : int; r_lo : int64; r_hi : int64; r_name : string }

type t = {
  ival : int;
  context : int array; (* per hart, owning CVM id (-1 = host) *)
  hits : (int * int64, int ref) Hashtbl.t; (* (cvm, page) -> count *)
  (* Last-bucket memo per hart: loops sample the same (cvm, page) over
     and over, and the tuple key + polymorphic hash would otherwise
     allocate on every expiry. *)
  last_cvm : int array;
  last_page : int64 array; (* Int64.min_int = empty (never a page base) *)
  last_count : int ref array;
  mutable regions : region list;
  mutable total : int;
}

let default_interval = 64

let create ?(interval = default_interval) ~nharts () =
  if interval <= 0 then invalid_arg "Profile.create: non-positive interval";
  if nharts <= 0 then invalid_arg "Profile.create: non-positive nharts";
  {
    ival = interval;
    context = Array.make nharts (-1);
    hits = Hashtbl.create 64;
    last_cvm = Array.make nharts (-1);
    last_page = Array.make nharts Int64.min_int;
    last_count = Array.init nharts (fun _ -> ref 0);
    regions = [];
    total = 0;
  }

let interval t = t.ival

let page_of pc = Int64.logand pc (Int64.lognot 0xFFFL)

(* One hit for [pc]'s page. It first tries the per-hart last-bucket
   memo (an int compare, an Int64 compare and an incr); the tuple key
   and hashtable only get touched when the sampled page actually
   changes. *)
let record t ~hart ~pc =
  if hart >= 0 && hart < Array.length t.context then begin
    let cvm = t.context.(hart) in
    let page = page_of pc in
    if cvm = t.last_cvm.(hart) && Int64.equal page t.last_page.(hart) then
      incr t.last_count.(hart)
    else begin
      let r =
        let key = (cvm, page) in
        match Hashtbl.find_opt t.hits key with
        | Some r -> r
        | None ->
            let r = ref 0 in
            Hashtbl.add t.hits key r;
            r
      in
      incr r;
      t.last_cvm.(hart) <- cvm;
      t.last_page.(hart) <- page;
      t.last_count.(hart) <- r
    end;
    t.total <- t.total + 1
  end

let set_context t ~hart ~cvm =
  if hart >= 0 && hart < Array.length t.context then t.context.(hart) <- cvm

let add_region t ~cvm ~lo ~hi name =
  t.regions <- { r_cvm = cvm; r_lo = lo; r_hi = hi; r_name = name } :: t.regions

let region_of t ~cvm page =
  List.find_map
    (fun r ->
      if r.r_cvm = cvm && page >= r.r_lo && page < r.r_hi then Some r.r_name
      else None)
    t.regions

let samples t = t.total

let buckets t =
  let rows =
    Hashtbl.fold
      (fun (cvm, page) n acc -> (cvm, page, region_of t ~cvm page, !n) :: acc)
      t.hits []
  in
  (* Descending hits, then (cvm, page) for a deterministic order. *)
  List.sort
    (fun (c1, p1, _, n1) (c2, p2, _, n2) ->
      if n1 <> n2 then compare n2 n1 else compare (c1, p1) (c2, p2))
    rows

let top_pages ?(k = 10) t =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | x :: rest -> x :: take (n - 1) rest
  in
  take k (buckets t)

let tenant_label cvm =
  if cvm < 0 then "host" else Printf.sprintf "cvm-%d" cvm

let folded t =
  let b = Buffer.create 1024 in
  List.iter
    (fun (cvm, page, region, n) ->
      Buffer.add_string b (tenant_label cvm);
      (match region with
      | Some r ->
          Buffer.add_char b ';';
          Buffer.add_string b r
      | None -> ());
      Buffer.add_string b (Printf.sprintf ";page-0x%Lx %d\n" page n))
    (buckets t);
  Buffer.contents b

let pp fmt t =
  Format.fprintf fmt "profile: %d samples, interval %d@." t.total t.ival;
  List.iter
    (fun (cvm, page, region, n) ->
      Format.fprintf fmt "  %-8s page 0x%-10Lx %-16s %6d (%.1f%%)@."
        (tenant_label cvm) page
        (match region with Some r -> r | None -> "-")
        n
        (100. *. float_of_int n /. float_of_int (max 1 t.total)))
    (top_pages ~k:10 t)

let reset t =
  Hashtbl.reset t.hits;
  t.total <- 0
