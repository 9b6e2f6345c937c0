module Gprog = Guest.Gprog
module Kvm = Hypervisor.Kvm
module Prng = Workloads.Prng
module Redis = Workloads.Redis

let block_requests = 250
let full_loops = 40
let key_space = 1024
let lists = 8

let pick rng l = List.nth l (Prng.int_below rng (List.length l))

(* One block covering the nine Fig 3 ops. Every push is matched by a
   pop, inside the block or appended after it, so the lists are empty
   again at the end of each block and server state stays bounded as the
   block repeats. *)
let gen_block rng =
  let key prefix space = Printf.sprintf "%s:%04d" prefix (Prng.int_below rng space) in
  let value () =
    String.init (3 + Prng.int_below rng 62) (fun _ ->
        Char.chr (Char.code 'a' + Prng.int_below rng 26))
  in
  let pending = ref [] in
  let pop_cmd list =
    [ (if Prng.int_below rng 2 = 0 then "LPOP" else "RPOP"); list ]
  in
  let cmd () =
    match pick rng Redis.benchmark_ops with
    | "PING" -> [ "PING" ]
    | "SET" -> [ "SET"; key "key" key_space; value () ]
    | "GET" -> [ "GET"; key "key" key_space ]
    | "INCR" -> [ "INCR"; key "counter" key_space ]
    | ("LPUSH" | "RPUSH") as op ->
        let l = key "list" lists in
        pending := l :: !pending;
        [ op; l; value () ]
    | "SADD" -> [ "SADD"; key "set" lists; key "member" key_space ]
    | _ -> (
        match !pending with
        | l :: rest ->
            pending := rest;
            pop_cmd l
        | [] -> pop_cmd (key "list" lists))
  in
  let body = List.init block_requests (fun _ -> cmd ()) in
  let drain = List.map pop_cmd !pending in
  Array.of_list (List.map Workloads.Resp.encode_command (body @ drain))

let quantum = Platform.Testbed.quantum_cycles

let prepare ~seed ~scale =
  let block = gen_block (Prng.create ~seed:(Int64.of_int seed)) in
  let n = Array.length block in
  let loops = Workload.sized ~scale full_loops in
  let total = n * loops in
  (* Reference: what a fresh server replies, first byte per request —
     exactly what the guest prints after each receive. *)
  let expected =
    let server = Redis.create () in
    let b = Bytes.create total in
    for i = 0 to total - 1 do
      Bytes.set b i (Redis.handle server block.(i mod n)).[0]
    done;
    Bytes.to_string b
  in
  let image =
    let body =
      List.concat_map
        (fun r -> Gprog.net_send r @ Gprog.net_recv_putchar)
        (Array.to_list block)
    in
    [ (Platform.Testbed.guest_entry,
       Riscv.Asm.program
         (Code.touch_bounce [ 2; 3 ]
         @ Code.repeat ~times:loops body
         @ Gprog.shutdown)) ]
  in
  fun arm obs ->
    let tb = Obs.testbed obs in
    let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
    let bad = Array.make total false in
    let seen = ref 0 and last = ref 0 in
    let server = Redis.create () in
    Hypervisor.Virtio_net.set_peer
      (Hypervisor.Mmio_emul.net (Kvm.devices tb.Platform.Testbed.kvm))
      (fun pkt ->
        let i = !seen in
        incr seen;
        if i < total then begin
          if pkt <> block.(i mod n) then bad.(i) <- true;
          let now = Metrics.Ledger.now ledger in
          Obs.sample obs (now - !last);
          last := now;
          Obs.set_op obs i
        end;
        Some (Obs.redis obs server pkt));
    (match Workload.create_guest obs tb arm ~image with
    | Error e -> Obs.fail obs ~ops:0 e
    | Ok guest ->
        Obs.measure obs tb (fun () ->
            last := Metrics.Ledger.now ledger;
            ignore
              (Obs.run_to_shutdown obs tb guest ~quantum ~after_slice:ignore
                : bool)));
    if !seen <> total then
      Obs.fail obs ~ops:0
        (Printf.sprintf "peer saw %d requests, expected %d" !seen total);
    let console = Riscv.Machine.console_output tb.Platform.Testbed.machine in
    let failed = ref 0 and first = ref (-1) in
    for i = 0 to total - 1 do
      if bad.(i) || i >= String.length console || console.[i] <> expected.[i]
      then begin
        incr failed;
        if !first < 0 then first := i
      end
    done;
    if String.length console > total then incr failed;
    if !failed > 0 then
      Obs.fail obs ~ops:!failed
        (Printf.sprintf
           "request %d onwards: console %S, reference %S (%d bytes printed)"
           !first
           (String.sub console (max 0 !first) (min 8 (max 0 (String.length console - !first))))
           (String.sub expected (max 0 !first) (min 8 (total - max 0 !first)))
           (String.length console));
    total

let workload = { Workload.name = "resp_net"; op = "request"; prepare }
