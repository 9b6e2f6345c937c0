open Riscv

type t = {
  mutable programmed : (int64 * int64) list; (* PMP-programmed regions *)
  mutable region_epoch : int;
      (* bumped whenever the programmed region set changes; the per-hart
         caches below are compared against it to skip redundant work *)
  mutable iopmp_done : (int64 * int64) list;
  hart_epoch : (int, int) Hashtbl.t;
      (* hart id -> region_epoch its PMP entries were programmed at *)
  hart_world : (int, bool) Hashtbl.t;
      (* hart id -> cvm_open its entries currently grant *)
  trace : Metrics.Trace.t option;
  mutable syncs : int;
  mutable world_toggles : int;
  mutable sync_skips : int;
  mutable world_skips : int;
}

let create ?trace () =
  {
    programmed = [];
    region_epoch = 0;
    iopmp_done = [];
    hart_epoch = Hashtbl.create 8;
    hart_world = Hashtbl.create 8;
    trace;
    syncs = 0;
    world_toggles = 0;
    sync_skips = 0;
    world_skips = 0;
  }

let trace_instant t ~hart name args =
  match t.trace with
  | Some tr when Metrics.Trace.is_enabled tr ->
      Metrics.Trace.instant tr ~hart ~args name
  | _ -> ()
let max_regions = 14
let backdrop_entry = 15

let is_pow2 v = Int64.logand v (Int64.sub v 1L) = 0L && v > 0L

(* A pool region must be NAPOT-encodable: power-of-two sized and
   size-aligned. *)
let napot (base, size) = is_pow2 size && Int64.rem base size = 0L

let admits secmem ~base ~size =
  napot (base, size) && List.length (Secmem.regions secmem) < max_regions

let check_region r =
  if not (napot r) then
    invalid_arg "Pmp_guard: region is not NAPOT-encodable"

(* A hart is current when its entries were written at the live region
   epoch and already grant the wanted world. *)
let hart_current t hart_id ~cvm_open =
  Hashtbl.find_opt t.hart_epoch hart_id = Some t.region_epoch
  && Hashtbl.find_opt t.hart_world hart_id = Some cvm_open

let sync_hart t hart secmem ~cvm_open =
  let regions = Secmem.regions secmem in
  if List.length regions > max_regions then
    invalid_arg "Pmp_guard: too many secure regions for PMP entries";
  List.iter check_region regions;
  if regions <> t.programmed then begin
    t.programmed <- regions;
    t.region_epoch <- t.region_epoch + 1
  end;
  let hart_id = hart.Hart.id in
  if hart_current t hart_id ~cvm_open then begin
    t.sync_skips <- t.sync_skips + 1;
    false
  end
  else begin
    let pmp = hart.Hart.csr.Csr.pmp in
    List.iteri
      (fun i (base, size) ->
        Pmp.set_napot_region pmp i ~base ~size ~r:cvm_open ~w:cvm_open
          ~x:cvm_open)
      regions;
    (* Clear any leftover entries between the regions and the backdrop. *)
    for i = List.length regions to backdrop_entry - 1 do
      Pmp.clear pmp i
    done;
    (* Backdrop: whole address space RWX for lower privileges. *)
    Pmp.set_napot_region pmp backdrop_entry ~base:0L
      ~size:0x4000_0000_0000_0000L ~r:true ~w:true ~x:true;
    Hashtbl.replace t.hart_epoch hart_id t.region_epoch;
    Hashtbl.replace t.hart_world hart_id cvm_open;
    t.syncs <- t.syncs + 1;
    trace_instant t ~hart:hart_id "pmp.sync"
      [
        ("regions", string_of_int (List.length regions));
        ("cvm_open", string_of_bool cvm_open);
      ];
    true
  end

let set_world t hart ~cvm_open =
  let hart_id = hart.Hart.id in
  if hart_current t hart_id ~cvm_open then begin
    t.world_skips <- t.world_skips + 1;
    false
  end
  else begin
    let pmp = hart.Hart.csr.Csr.pmp in
    List.iteri
      (fun i (_, _) ->
        let cfg =
          Pmp.cfg_bits ~r:cvm_open ~w:cvm_open ~x:cvm_open Pmp.Napot
        in
        Pmp.set_cfg pmp i cfg)
      t.programmed;
    Hashtbl.replace t.hart_world hart_id cvm_open;
    t.world_toggles <- t.world_toggles + 1;
    trace_instant t ~hart:hart_id "pmp.world"
      [ ("cvm_open", string_of_bool cvm_open) ];
    true
  end

let guard_iopmp t iopmp secmem =
  List.iter
    (fun (base, size) ->
      if not (List.mem (base, size) t.iopmp_done) then begin
        Iopmp.add_deny iopmp ~base ~size;
        t.iopmp_done <- (base, size) :: t.iopmp_done;
        trace_instant t ~hart:(-1) "iopmp.deny"
          [ ("base", Printf.sprintf "0x%Lx" base);
            ("size", Printf.sprintf "0x%Lx" size) ]
      end)
    (Secmem.regions secmem)

(* A reboot wiped every PMP CSR and the IOPMP config: forget everything
   the epoch caches believe so the next sync/guard reprograms from
   scratch instead of skipping on stale epochs. *)
let reset t =
  t.programmed <- [];
  t.region_epoch <- t.region_epoch + 1;
  t.iopmp_done <- [];
  Hashtbl.reset t.hart_epoch;
  Hashtbl.reset t.hart_world

let sync_count t = t.syncs
let world_toggle_count t = t.world_toggles
let sync_skip_count t = t.sync_skips
let world_skip_count t = t.world_skips
