open Riscv
module Sw = Guest.Swiotlb

type verdict =
  | V_ok
  | V_used_rewind
  | V_used_runaway
  | V_bad_id
  | V_replay
  | V_bad_len
  | V_desc_mutated
  | V_stall

let verdict_to_string = function
  | V_ok -> "ok"
  | V_used_rewind -> "used_rewind"
  | V_used_runaway -> "used_runaway"
  | V_bad_id -> "bad_id"
  | V_replay -> "replay"
  | V_bad_len -> "bad_len"
  | V_desc_mutated -> "desc_mutated"
  | V_stall -> "stall"

type mode = Exitless | Fallen_back

let max_strikes = 3
let watchdog_polls = 64
let qsize = Sw.ring_entries

type ctx = {
  bus : Bus.t;
  translate : int64 -> int64 option;
  secure : int64 -> bool;
  registry : Metrics.Registry.t;
  cvm : int;
  cost : Cost.t;
  charge : string -> int -> unit;
}

let make_ctx ~bus ~translate ~secure ~registry ~cvm ~cost ~charge =
  { bus; translate; secure; registry; cvm; cost; charge }

let inc ctx name =
  Metrics.Registry.inc ctx.registry ~scope:(Metrics.Registry.Cvm ctx.cvm) name

let inc_by ctx name by =
  Metrics.Registry.inc ctx.registry
    ~scope:(Metrics.Registry.Cvm ctx.cvm)
    ~by name

(* Raw field access at a byte offset within the ring page. The guest's
   driver makes CPU loads and stores through its shared subtree, and
   refuses a page inside the secure pool as the hardened entry sweep
   refuses such a leaf. The host's polling device, and so every attack
   vector that plays the host, makes DMA from [sid]: a ring GPA that the
   host pointed into the secure pool is refused by the IOPMP, never read
   or written. *)
let sid = 5

let ring_pa ~translate ~off =
  translate (Int64.add Sw.ring_gpa (Int64.of_int off))

(* [None] when the page does not translate or the IOPMP refuses. *)
let dma_pa ~bus ~translate access ~off ~width =
  match ring_pa ~translate ~off with
  | Some pa when Iopmp.check (Bus.iopmp bus) ~sid access pa width -> Some pa
  | _ -> None

let read_at bus width = Option.map (fun pa -> Bus.read bus pa width)

let write_at bus width v = function
  | Some pa ->
      Bus.write bus pa width v;
      true
  | None -> false

let peek ~bus ~translate ~off ~width =
  read_at bus width (dma_pa ~bus ~translate Iopmp.Read ~off ~width)

let poke ~bus ~translate ~off ~width v =
  write_at bus width v (dma_pa ~bus ~translate Iopmp.Write ~off ~width)

let guest_pa ctx ~off =
  match ring_pa ~translate:ctx.translate ~off with
  | Some pa when not (ctx.secure pa) -> Some pa
  | _ -> None

let cpu_peek ctx ~off ~width = read_at ctx.bus width (guest_pa ctx ~off)
let cpu_poke ctx ~off ~width v = write_at ctx.bus width v (guest_pa ctx ~off)

(* One posted descriptor, as the guest remembers it. *)
type shadow = {
  s_gpa : int64;
  s_len : int;
  s_op : int;
  s_meta : int64;
  s_slot : int option;
}

type guest = {
  g : ctx;
  shadow : shadow option array;
  mutable avail_idx : int;  (* free-running mod 2^16 *)
  mutable used_seen : int;
  mutable g_outstanding : int;
  mutable g_strikes : int;
  mutable empty_polls : int;
  mutable g_mode : mode;
  pool : Sw.pool;
}

type host = {
  h : ctx;
  mutable avail_seen : int;
  mutable used_next : int;
  mutable h_served : int;
  mutable h_notifications : int;
  mutable h_rejects : int;
  mutable h_active : bool;
}

let create_pair ctx =
  (* The host hands the guest a zeroed page, by DMA like every other
     host access. *)
  match
    dma_pa ~bus:ctx.bus ~translate:ctx.translate Iopmp.Write ~off:0
      ~width:4096
  with
  | None -> Error "the host's DMA cannot reach the ring page"
  | Some pa ->
      Bus.zero_range ctx.bus pa 4096;
      Ok
        ( {
            g = ctx;
            shadow = Array.make qsize None;
            avail_idx = 0;
            used_seen = 0;
            g_outstanding = 0;
            g_strikes = 0;
            empty_polls = 0;
            g_mode = Exitless;
            pool = Sw.create_pool ();
          },
          {
            h = ctx;
            avail_seen = 0;
            used_next = 0;
            h_served = 0;
            h_notifications = 0;
            h_rejects = 0;
            h_active = true;
          } )

(* {2 Guest view} *)

let guest_mode g = g.g_mode
let outstanding g = g.g_outstanding
let guest_pool g = g.pool

let release_slot g = function
  | None -> ()
  | Some slot -> ( match Sw.release g.pool slot with Ok () | Error _ -> ())

let force_fallback g =
  if g.g_mode = Exitless then begin
    g.g_mode <- Fallen_back;
    inc g.g "sm.io.fallbacks";
    (* Release every in-flight bounce slot exactly once. The page is
       left as it is: the guest no longer trusts anything in it, and a
       future ring starts from a page [create_pair] zeroed by DMA, so
       no stale completion can replay into it. *)
    Array.iteri
      (fun i sh ->
        match sh with
        | None -> ()
        | Some sh ->
            release_slot g sh.s_slot;
            g.shadow.(i) <- None)
      g.shadow;
    g.g_outstanding <- 0
  end

let strike g =
  g.g_strikes <- g.g_strikes + 1;
  inc g.g "sm.io.cal_rejections";
  if g.g_strikes >= max_strikes then force_fallback g

let free_desc_id g =
  let rec go i =
    if i >= qsize then None
    else if g.shadow.(i) = None then Some i
    else go (i + 1)
  in
  go 0

let submit g ~op ~len ~data_gpa ~meta ?slot () =
  if g.g_mode = Fallen_back then Error Zion.Ecall.Bad_state
  else if g.g_outstanding >= qsize then Error Zion.Ecall.No_memory
  else
    match free_desc_id g with
    | None -> Error Zion.Ecall.No_memory
    | Some id ->
        let d = Sw.ring_desc_off id in
        let ok =
          cpu_poke g.g ~off:d ~width:8 data_gpa
          && cpu_poke g.g ~off:(d + 8) ~width:4 (Int64.of_int len)
          && cpu_poke g.g ~off:(d + 12) ~width:4 (Int64.of_int op)
          && cpu_poke g.g ~off:(d + 16) ~width:8 meta
          && cpu_poke g.g
               ~off:(Sw.ring_avail_entry_off (g.avail_idx mod qsize))
               ~width:4 (Int64.of_int id)
        in
        if not ok then Error Zion.Ecall.Invalid_address
        else begin
          g.shadow.(id) <-
            Some { s_gpa = data_gpa; s_len = len; s_op = op; s_meta = meta;
                   s_slot = slot };
          g.avail_idx <- (g.avail_idx + 1) land 0xFFFF;
          ignore
            (cpu_poke g.g ~off:Sw.ring_avail_idx_off ~width:4
               (Int64.of_int g.avail_idx));
          g.g_outstanding <- g.g_outstanding + 1;
          g.g.charge "ring_submit" g.g.cost.Cost.ring_submit;
          Ok id
        end

(* Signed distance between two free-running 16-bit indices. *)
let idx_diff newer older = ((newer - older + 0x8000) land 0xFFFF) - 0x8000

let consume g =
  if g.g_mode = Fallen_back then (0, V_ok)
  else begin
    g.g.charge "ring_consume" g.g.cost.Cost.shared_item_load;
    match cpu_peek g.g ~off:Sw.ring_used_idx_off ~width:4 with
    | None ->
        (* The host yanked the ring page itself: treat as a stall. *)
        force_fallback g;
        (0, V_stall)
    | Some used_raw ->
        let used = Int64.to_int (Int64.logand used_raw 0xFFFFL) in
        let d = idx_diff used g.used_seen in
        if d < 0 then begin
          strike g;
          (0, V_used_rewind)
        end
        else if d > g.g_outstanding then begin
          strike g;
          (0, V_used_runaway)
        end
        else if d = 0 then begin
          if g.g_outstanding > 0 then begin
            g.empty_polls <- g.empty_polls + 1;
            if g.empty_polls > watchdog_polls then begin
              force_fallback g;
              (0, V_stall)
            end
            else (0, V_ok)
          end
          else (0, V_ok)
        end
        else begin
          (* Check-after-Load every host-writable field of every new
             completion before acting on any of them. Shadow entries are
             only cleared once the whole batch validates, so replay of an
             id *within* the batch must be caught separately: [seen]
             records ids already validated this batch. *)
          let entries = ref [] in
          let seen = Array.make qsize false in
          let bad = ref None in
          let k = ref 0 in
          while !bad = None && !k < d do
            let pos = (g.used_seen + !k) mod qsize in
            let u = Sw.ring_used_entry_off pos in
            (match
               (cpu_peek g.g ~off:u ~width:4, cpu_peek g.g ~off:(u + 4) ~width:4)
             with
            | Some id_raw, Some len_raw -> begin
                let id = Int64.to_int (Int64.logand id_raw 0xFFFFFFFFL) in
                let len = Int64.to_int (Int64.logand len_raw 0xFFFFFFFFL) in
                g.g.charge "ring_consume_check"
                  g.g.cost.Cost.ring_consume_check;
                if id < 0 || id >= qsize then bad := Some V_bad_id
                else if seen.(id) then bad := Some V_replay
                else
                  match g.shadow.(id) with
                  | None -> bad := Some V_replay
                  | Some sh ->
                      if len > sh.s_len then bad := Some V_bad_len
                      else begin
                        let doff = Sw.ring_desc_off id in
                        let same =
                          cpu_peek g.g ~off:doff ~width:8 = Some sh.s_gpa
                          && cpu_peek g.g ~off:(doff + 8) ~width:4
                             = Some (Int64.of_int sh.s_len)
                          && cpu_peek g.g ~off:(doff + 12) ~width:4
                             = Some (Int64.of_int sh.s_op)
                          && cpu_peek g.g ~off:(doff + 16) ~width:8
                             = Some sh.s_meta
                        in
                        if not same then bad := Some V_desc_mutated
                        else begin
                          seen.(id) <- true;
                          entries := (id, sh) :: !entries
                        end
                      end
              end
            | _ -> bad := Some V_stall);
            incr k
          done;
          match !bad with
          | Some v ->
              if v = V_stall then force_fallback g else strike g;
              (0, v)
          | None ->
              List.iter
                (fun (id, sh) ->
                  release_slot g sh.s_slot;
                  g.shadow.(id) <- None)
                !entries;
              g.g_outstanding <- g.g_outstanding - d;
              g.used_seen <- used;
              g.empty_polls <- 0;
              inc_by g.g "sm.io.completions" d;
              if d > 1 then inc_by g.g "sm.io.completions_coalesced" (d - 1);
              (d, V_ok)
        end
  end

(* {2 Host view} *)

let host_active h = h.h_active
let served h = h.h_served
let notifications h = h.h_notifications
let host_rejects h = h.h_rejects
let retire h = h.h_active <- false

let host_reject h =
  h.h_rejects <- h.h_rejects + 1;
  inc h.h "sm.io.host_rejects"

(* A host access that cannot reach the ring page, because the IOPMP
   refused it or the page does not translate, is a host reject. *)
let host_pa h access ~off ~width =
  let pa = dma_pa ~bus:h.h.bus ~translate:h.h.translate access ~off ~width in
  if Option.is_none pa then host_reject h;
  pa

let host_peek h ~off ~width =
  read_at h.h.bus width (host_pa h Iopmp.Read ~off ~width)

let host_poke h ~off ~width v =
  write_at h.h.bus width v (host_pa h Iopmp.Write ~off ~width)

(* Validate a descriptor the way a non-malicious host must before
   touching it: the data buffer stays inside the shared window and the
   length is bounded by one bounce slot. The IOPMP is the backstop if
   this check is wrong or raced. *)
let desc_plausible ~data_gpa ~len =
  len >= 0 && len <= Sw.slot_size
  && Zion.Layout.is_shared_gpa data_gpa
  && (len = 0
     || Zion.Layout.is_shared_gpa (Int64.add data_gpa (Int64.of_int (len - 1))))

let service h ~blk ~net =
  if not h.h_active then 0
  else begin
    h.h.charge "ring_host_poll" h.h.cost.Cost.ring_host_poll;
    match host_peek h ~off:Sw.ring_avail_idx_off ~width:4 with
    | None -> 0
    | Some avail_raw ->
        let avail = Int64.to_int (Int64.logand avail_raw 0xFFFFL) in
        let d = (avail - h.avail_seen) land 0xFFFF in
        (* A runaway avail index (hostile guest or third-party poke)
           is clamped to the queue size: a well-formed driver can never
           have more than qsize requests in flight. *)
        let d =
          if d > qsize then begin
            host_reject h;
            qsize
          end
          else d
        in
        let completions = ref 0 in
        for k = 0 to d - 1 do
          let pos = (h.avail_seen + k) mod qsize in
          let id =
            match host_peek h ~off:(Sw.ring_avail_entry_off pos) ~width:4 with
            | None -> -1
            | Some v -> Int64.to_int (Int64.logand v 0xFFFFFFFFL)
          in
          let result =
            if id < 0 || id >= qsize then begin
              host_reject h;
              None (* garbage id: no used entry to write it under *)
            end
            else begin
              let doff = Sw.ring_desc_off id in
              match
                ( host_peek h ~off:doff ~width:8,
                  host_peek h ~off:(doff + 8) ~width:4,
                  host_peek h ~off:(doff + 12) ~width:4,
                  host_peek h ~off:(doff + 16) ~width:8 )
              with
              | Some data_gpa, Some len_raw, Some op_raw, Some meta -> (
                  let len = Int64.to_int (Int64.logand len_raw 0xFFFFFFFFL) in
                  let op = Int64.to_int (Int64.logand op_raw 0xFFFFFFFFL) in
                  (* The device functions the MMIO kicks call, IOPMP
                     backstop included: a refused request comes back as
                     an [Error], never as an exception. *)
                  match
                    if not (desc_plausible ~data_gpa ~len) then
                      Error "ring.desc"
                    else if op = Sw.op_blk_read || op = Sw.op_blk_write then
                      Virtio_blk.request blk
                        ~write:(op = Sw.op_blk_write)
                        ~sector:(Int64.to_int meta) ~len ~data_gpa
                    else if op = Sw.op_net_tx then
                      Virtio_net.transmit net ~data_gpa ~len
                    else if op = Sw.op_net_rx then
                      Virtio_net.receive net ~data_gpa ~len
                    else Error "ring.op"
                  with
                  | Ok n -> Some (id, n)
                  | Error _ ->
                      host_reject h;
                      Some (id, 0))
              | _ -> None
            end
          in
          match result with
          | None -> ()
          | Some (id, len) ->
              let u = Sw.ring_used_entry_off (h.used_next mod qsize) in
              ignore (host_poke h ~off:u ~width:4 (Int64.of_int id));
              ignore (host_poke h ~off:(u + 4) ~width:4 (Int64.of_int len));
              h.used_next <- (h.used_next + 1) land 0xFFFF;
              h.h_served <- h.h_served + 1;
              incr completions;
              (* One doorbell MMIO exit (and its status-read sibling)
                 that never happened. *)
              inc h.h "sm.io.kicks_suppressed";
              h.h.charge "ring_host_service" h.h.cost.Cost.ring_host_service
        done;
        h.avail_seen <- (h.avail_seen + d) land 0xFFFF;
        if !completions > 0 then begin
          (* Publish the used index once for the whole batch. *)
          ignore
            (host_poke h ~off:Sw.ring_used_idx_off ~width:4
               (Int64.of_int h.used_next));
          h.h_notifications <- h.h_notifications + 1;
          h.h.charge "ring_notify" h.h.cost.Cost.ring_notify
        end;
        !completions
  end
