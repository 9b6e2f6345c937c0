module Testbed = Platform.Testbed
module Kvm = Hypervisor.Kvm
module Monitor = Zion.Monitor

type tally = {
  mutable cycles : int;
  layer_cycles : int array;
  mutable instret : int;
  mutable tlb_hits : int;
  mutable tlb_misses : int;
  mutable entries : int;
  mutable entry_cycles : int;
  mutable exits : int;
  mutable exit_cycles : int;
  mutable faults : int;
  mutable fault_cycles : int;
  mutable fault_stage2 : int;
  mutable fault_stage3 : int;
  mutable pmp_syncs : int;
  mutable pmp_sync_skips : int;
  mutable world_toggles : int;
  mutable world_skips : int;
  mutable mmio : int;
  mutable expansions : int;
  mutable trace_recorded : int;
  mutable trace_dropped : int;
  mutable audit_findings : int;
  mutable slices : int;
  mutable creates : int;
  mutable create_cycles : int;
  mutable destroys : int;
  mutable destroy_cycles : int;
  mutable ring_notifications : int;
  mutable ring_rejects : int;
  mutable blk_bytes : int;
  mutable latency : int list;
  mutable failed : int;
  mutable failures : string list;
  mutable setups : float list;
  mutable run_s : float;
  mutable minor_words : float;
  mutable major_gcs : int;
}

type span = {
  id : int;
  name : string;
  parent : int;
  op : int;
  t0 : float;
  mutable t1 : float;
  mutable children_s : float;
}

(* One Chrome event: a span opening (B) or closing (E). *)
type event = Open of span | Close of span

type call = { mutable n : int; mutable s : float }

type t = {
  traced : bool;
  tally : tally;
  calls : (string, call) Hashtbl.t;
  mutable events : event list;  (* newest first *)
  mutable stack : span list;
  mutable next_id : int;
  mutable op : int;
  mutable setup_t0 : float;
}

let now = Unix.gettimeofday

let create ~traced () =
  {
    traced;
    tally =
      {
        cycles = 0;
        layer_cycles = Array.make (List.length Layers.all) 0;
        instret = 0;
        tlb_hits = 0;
        tlb_misses = 0;
        entries = 0;
        entry_cycles = 0;
        exits = 0;
        exit_cycles = 0;
        faults = 0;
        fault_cycles = 0;
        fault_stage2 = 0;
        fault_stage3 = 0;
        pmp_syncs = 0;
        pmp_sync_skips = 0;
        world_toggles = 0;
        world_skips = 0;
        mmio = 0;
        expansions = 0;
        trace_recorded = 0;
        trace_dropped = 0;
        audit_findings = 0;
        slices = 0;
        creates = 0;
        create_cycles = 0;
        destroys = 0;
        destroy_cycles = 0;
        ring_notifications = 0;
        ring_rejects = 0;
        blk_bytes = 0;
        latency = [];
        failed = 0;
        failures = [];
        setups = [];
        run_s = 0.;
        minor_words = 0.;
        major_gcs = 0;
      };
    calls = Hashtbl.create 16;
    events = [];
    stack = [];
    next_id = 0;
    op = 0;
    setup_t0 = now ();
  }

let tally t = t.tally
let set_op t op = t.op <- op

let fail t ~ops why =
  t.tally.failed <- t.tally.failed + ops;
  t.tally.failures <- why :: t.tally.failures

let sample t cycles = t.tally.latency <- cycles :: t.tally.latency

let call t name f =
  let c =
    match Hashtbl.find_opt t.calls name with
    | Some c -> c
    | None ->
        let c = { n = 0; s = 0. } in
        Hashtbl.add t.calls name c;
        c
  in
  let t0 = now () in
  let span =
    if t.traced then begin
      let parent = match t.stack with p :: _ -> p.id | [] -> -1 in
      let sp =
        { id = t.next_id; name; parent; op = t.op; t0; t1 = t0;
          children_s = 0. }
      in
      t.next_id <- t.next_id + 1;
      t.stack <- sp :: t.stack;
      t.events <- Open sp :: t.events;
      Some sp
    end
    else None
  in
  let r = f () in
  let t1 = now () in
  c.n <- c.n + 1;
  c.s <- c.s +. (t1 -. t0);
  (match span with
  | None -> ()
  | Some sp ->
      sp.t1 <- t1;
      t.stack <- List.tl t.stack;
      (match t.stack with
      | p :: _ -> p.children_s <- p.children_s +. (t1 -. t0)
      | [] -> ());
      t.events <- Close sp :: t.events);
  r

let host_time t name =
  match Hashtbl.find_opt t.calls name with
  | Some c -> (c.n, c.s)
  | None -> (0, 0.)

(* ---------- measured segments ---------- *)

type snap = {
  ledger : Metrics.Ledger.snapshot;
  instret : int;
  tlb_hits : int;
  tlb_misses : int;
  entries : int;
  exits : int;
  faults : int;
  pmp : (string * int) list;
  mmio : int;
  expansions : int;
  recorded : int;
  dropped : int;
}

let snap (tb : Testbed.t) =
  let harts = tb.Testbed.machine.Riscv.Machine.harts in
  let sum f = Array.fold_left (fun acc h -> acc + f h) 0 harts in
  let mon = tb.Testbed.monitor in
  let tr = Monitor.trace mon in
  {
    ledger = Metrics.Ledger.snapshot tb.Testbed.machine.Riscv.Machine.ledger;
    instret =
      sum (fun h -> Int64.to_int h.Riscv.Hart.csr.Riscv.Csr.minstret);
    tlb_hits = sum (fun h -> Riscv.Tlb.hits h.Riscv.Hart.tlb);
    tlb_misses = sum (fun h -> Riscv.Tlb.misses h.Riscv.Hart.tlb);
    entries = List.length (Monitor.entry_cycles mon);
    exits = List.length (Monitor.exit_cycles mon);
    faults = List.length (Monitor.fault_log mon);
    pmp = Monitor.pmp_counters mon;
    mmio = Kvm.mmio_exits_serviced tb.Testbed.kvm;
    expansions = Kvm.expansions tb.Testbed.kvm;
    recorded = Metrics.Trace.recorded tr;
    dropped = Metrics.Trace.dropped tr;
  }

(* Fold over the [n] newest entries of a most-recent-first log. *)
let fold_newest n f acc log =
  let rec go i acc = function
    | x :: rest when i < n -> go (i + 1) (f acc x) rest
    | _ -> acc
  in
  go 0 acc log

let add_diff (a : tally) (tb : Testbed.t) before after =
  let d = Metrics.Ledger.diff ~earlier:before.ledger ~later:after.ledger in
  let clock = Metrics.Ledger.snapshot_clock d in
  let attributed = ref 0 in
  List.iter
    (fun (cat, cycles) ->
      let i = Layers.index (Layers.of_category cat) in
      a.layer_cycles.(i) <- a.layer_cycles.(i) + cycles;
      attributed := !attributed + cycles)
    (Metrics.Ledger.snapshot_totals d);
  if !attributed <> clock then
    raise
      (Layers.Unmapped
         (Printf.sprintf "<%d cycles charged to no category>"
            (clock - !attributed)));
  a.cycles <- a.cycles + clock;
  a.instret <- a.instret + (after.instret - before.instret);
  a.tlb_hits <- a.tlb_hits + (after.tlb_hits - before.tlb_hits);
  a.tlb_misses <- a.tlb_misses + (after.tlb_misses - before.tlb_misses);
  let mon = tb.Testbed.monitor in
  let ne = after.entries - before.entries in
  a.entries <- a.entries + ne;
  a.entry_cycles <- fold_newest ne ( + ) a.entry_cycles (Monitor.entry_cycles mon);
  let nx = after.exits - before.exits in
  a.exits <- a.exits + nx;
  a.exit_cycles <- fold_newest nx ( + ) a.exit_cycles (Monitor.exit_cycles mon);
  fold_newest (after.faults - before.faults)
    (fun () (stage, cycles) ->
      a.faults <- a.faults + 1;
      a.fault_cycles <- a.fault_cycles + cycles;
      match stage with
      | Zion.Hier_alloc.Stage1 -> ()
      | Zion.Hier_alloc.Stage2 -> a.fault_stage2 <- a.fault_stage2 + 1
      | Zion.Hier_alloc.Stage3_retry -> a.fault_stage3 <- a.fault_stage3 + 1)
    () (Monitor.fault_log mon);
  let pmp name =
    List.assoc name after.pmp - List.assoc name before.pmp
  in
  a.pmp_syncs <- a.pmp_syncs + pmp "pmp.syncs";
  a.pmp_sync_skips <- a.pmp_sync_skips + pmp "pmp.sync_skips";
  a.world_toggles <- a.world_toggles + pmp "pmp.world_toggles";
  a.world_skips <- a.world_skips + pmp "pmp.world_skips";
  a.mmio <- a.mmio + (after.mmio - before.mmio);
  a.expansions <- a.expansions + (after.expansions - before.expansions);
  a.trace_recorded <- a.trace_recorded + (after.recorded - before.recorded);
  a.trace_dropped <- a.trace_dropped + (after.dropped - before.dropped)

let measure t tb f =
  let a = t.tally in
  let start = now () in
  a.setups <- (start -. t.setup_t0) :: a.setups;
  let before = snap tb in
  let words = Gc.minor_words () and majors = (Gc.quick_stat ()).major_collections in
  let t0 = now () in
  let r = f () in
  a.run_s <- a.run_s +. (now () -. t0);
  a.minor_words <- a.minor_words +. (Gc.minor_words () -. words);
  a.major_gcs <- a.major_gcs + ((Gc.quick_stat ()).major_collections - majors);
  add_diff a tb before (snap tb);
  (match call t "zion.audit" (fun () -> Monitor.audit tb.Testbed.monitor) with
  | Ok _ -> ()
  | Error findings ->
      a.audit_findings <- a.audit_findings + List.length findings;
      List.iter (fun f -> a.failures <- ("audit: " ^ f) :: a.failures) findings);
  r

(* ---------- timed calls into the layers ---------- *)

let testbed t =
  t.setup_t0 <- now ();
  let tb = call t "platform.testbed_create" (fun () -> Testbed.create ()) in
  if t.traced then Metrics.Trace.enable (Monitor.trace tb.Testbed.monitor);
  tb

let ledger_now (tb : Testbed.t) =
  Metrics.Ledger.now tb.Testbed.machine.Riscv.Machine.ledger

let create_cvm t tb ~image =
  let c0 = ledger_now tb in
  let r =
    call t "hypervisor.create_cvm_guest" (fun () ->
        Kvm.create_cvm_guest tb.Testbed.kvm ~entry_pc:Testbed.guest_entry
          ~image)
  in
  t.tally.creates <- t.tally.creates + 1;
  t.tally.create_cycles <- t.tally.create_cycles + (ledger_now tb - c0);
  r

let create_nvm t tb ~image =
  call t "hypervisor.create_normal_vm" (fun () ->
      Kvm.create_normal_vm tb.Testbed.kvm ~entry_pc:Testbed.guest_entry ~image)

let destroy_cvm t tb h =
  let c0 = ledger_now tb in
  let r =
    call t "zion.destroy_cvm" (fun () ->
        Monitor.destroy_cvm tb.Testbed.monitor ~cvm:(Kvm.cvm_id h))
  in
  t.tally.destroys <- t.tally.destroys + 1;
  t.tally.destroy_cycles <- t.tally.destroy_cycles + (ledger_now tb - c0);
  r

let max_steps = 10_000_000

let run_cvm t tb h ~quantum =
  Testbed.enable_timer tb ~hart:0;
  Testbed.set_quantum tb ~hart:0 quantum;
  t.tally.slices <- t.tally.slices + 1;
  call t "hypervisor.run_cvm" (fun () ->
      Kvm.run_cvm tb.Testbed.kvm h ~hart:0 ~max_steps)

let run_nvm t tb vm ~quantum =
  Testbed.enable_timer tb ~hart:0;
  Testbed.set_quantum tb ~hart:0 quantum;
  t.tally.slices <- t.tally.slices + 1;
  call t "hypervisor.run_normal_vm" (fun () ->
      Kvm.run_normal_vm tb.Testbed.kvm vm ~hart:0 ~max_steps)

type guest = Cvm of Kvm.cvm_handle | Nvm of Kvm.nvm

let run_to_shutdown t tb guest ~quantum ~after_slice =
  let rec go n =
    let next =
      match guest with
      | Cvm h -> (
          match run_cvm t tb h ~quantum with
          | Kvm.C_timer -> `Again
          | Kvm.C_shutdown -> `Done
          | _ -> `Stopped)
      | Nvm vm -> (
          match run_nvm t tb vm ~quantum with
          | Kvm.N_timer -> `Again
          | Kvm.N_shutdown -> `Done
          | _ -> `Stopped)
    in
    after_slice n;
    match next with
    | `Again -> go (n + 1)
    | `Done -> true
    | `Stopped ->
        fail t ~ops:0 "guest stopped before shutdown";
        false
  in
  go 0

let run_wave t sched ~harts =
  let before = Hypervisor.Sched.slices_run sched in
  let r =
    call t "hypervisor.sched_run_on_harts" (fun () ->
        Hypervisor.Sched.run_on_harts sched ~harts ~max_rounds:10_000)
  in
  t.tally.slices <-
    t.tally.slices + (Hypervisor.Sched.slices_run sched - before);
  r

let redis t server req =
  call t "workloads.redis_handle" (fun () -> Workloads.Redis.handle server req)

(* ---------- traced pass ---------- *)

let spans t =
  List.filter_map (function Open sp -> Some sp | Close _ -> None) t.events

let layer_of name =
  match String.index_opt name '.' with
  | Some i -> String.sub name 0 i
  | None -> name

let self_times t =
  let acc = Hashtbl.create 8 in
  List.iter
    (fun sp ->
      let l = layer_of sp.name in
      let prev = Option.value ~default:0. (Hashtbl.find_opt acc l) in
      Hashtbl.replace acc l (prev +. (sp.t1 -. sp.t0 -. sp.children_s)))
    (spans t);
  List.sort compare (Hashtbl.fold (fun l s acc -> (l, s) :: acc) acc [])

let spans_balanced t =
  t.stack = []
  &&
  let depth =
    List.fold_left
      (fun d ev ->
        if d < 0 then d else match ev with Open _ -> d + 1 | Close _ -> d - 1)
      0 (List.rev t.events)
  in
  depth = 0

let write_chrome t path =
  let open Metrics.Export in
  let evs = List.rev t.events in
  let origin =
    match evs with Open sp :: _ -> sp.t0 | Close sp :: _ -> sp.t1 | [] -> 0.
  in
  let us x = Num (Float.round ((x -. origin) *. 1e7) /. 10.) in
  let common name ph ts =
    [ ("name", Str name); ("cat", Str (layer_of name)); ("ph", Str ph);
      ("ts", ts); ("pid", Num 1.); ("tid", Num 1.) ]
  in
  let event = function
    | Open sp ->
        Obj
          (common sp.name "B" (us sp.t0)
          @ [
              ( "args",
                Obj
                  [ ("id", num_of_int sp.id); ("parent", num_of_int sp.parent);
                    ("op", num_of_int sp.op) ] );
            ])
    | Close sp -> Obj (common sp.name "E" (us sp.t1))
  in
  let doc =
    Obj [ ("traceEvents", List (List.map event evs));
          ("displayTimeUnit", Str "ms") ]
  in
  let oc = open_out path in
  output_string oc (json_to_string doc);
  output_char oc '\n';
  close_out oc
