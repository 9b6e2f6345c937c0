(* Region and CVM lifecycle: pool growth, create, image load, finalize,
   the shared-subtree install and destroy, with their journal replay. *)

open Riscv
open Sm_state

let register_secure_region_impl t ~base ~size =
  let bus = t.machine.Machine.bus in
  let last = Int64.add base (Int64.sub size 1L) in
  if not (Bus.in_dram bus base && Bus.in_dram bus last) then
    Error Ecall.Invalid_param
  (* Refuse what PMP cannot guard before anything is linked: a region
     linked and then rejected would sit in the pool, open to HS. *)
  else if not (Pmp_guard.admits t.sm ~base ~size) then
    Error Ecall.Invalid_param
  else begin
    let jr = Journal.append t.journal (Journal.Op_expand { base; size }) in
    match Secmem.register_region t.sm ~base ~size with
    | Error _ ->
        Journal.mark_done t.journal jr;
        Error Ecall.Invalid_param
    | Ok blocks ->
        Journal.checkpoint t.journal jr "linked";
        let synced = ref 0 in
        Array.iter
          (fun hart ->
            if Pmp_guard.sync_hart t.guard hart t.sm ~cvm_open:false then
              incr synced)
          t.machine.Machine.harts;
        let nharts = Array.length t.machine.Machine.harts in
        Pmp_guard.guard_iopmp t.guard (Bus.iopmp bus) t.sm;
        (* Per-hart PMP resync + IOPMP programming + the mandatory
           global fence on every hart (the paper keeps region
           registration a full-flush point). Charged per hart so the
           ledger agrees with the registry's flush count. *)
        charge t "sm_region_setup"
          ((!synced * t.cost.Cost.pmp_toggle) + t.cost.Cost.pmp_toggle
          + (nharts * t.cost.Cost.tlb_full_flush));
        fence_all t Tlb.flush_all;
        if obs t then
          Metrics.Registry.inc t.registry ~by:nharts "tlb.full_flush";
        Journal.mark_done t.journal jr;
        Ok blocks
  end

let register_secure_region t ~base ~size =
  host_call t "register_secure_region" (fun () ->
      register_secure_region_impl t ~base ~size)

(* Allocate one 4 KiB secure page for page tables, growing the CVM's
   table-block list as needed. *)
let alloc_table_page t table_blocks () =
  let take () =
    match !table_blocks with
    | blk :: _ -> Secmem.block_take_page blk
    | [] -> None
  in
  match take () with
  | Some p -> Some p
  | None -> begin
      match Secmem.alloc_block t.sm with
      | None -> None
      | Some blk ->
          table_blocks := blk :: !table_blocks;
          Secmem.block_take_page blk
    end

(* Cap matches the migration format's plausibility bound. *)
let max_nvcpus = 64

let create_cvm_impl t ~nvcpus ~entry_pc =
  if nvcpus <= 0 || nvcpus > max_nvcpus then Error Ecall.Invalid_param
  else begin
    (* Journal the intent against the block the pop below will return
       (single-threaded SM: nothing moves the list head in between), so
       recovery can find the orphaned block if we die mid-build. *)
    match Secmem.peek_block_base t.sm with
    | None -> Error Ecall.No_memory
    | Some block_base -> (
        let id = t.next_cvm_id in
        let jr =
          Journal.append t.journal
            (Journal.Op_create { cvm = id; block_base; nvcpus })
        in
        reserve_cvm_id t id;
        (* The Sv39x4 root needs 16 KiB, 16 KiB-aligned: take the first
           four pages of a fresh block (blocks are 256 KiB-aligned). *)
        match Secmem.alloc_block t.sm with
        | None ->
            (* unreachable: the peek above saw a free block *)
            Journal.mark_done t.journal jr;
            Error Ecall.No_memory
        | Some blk ->
            Journal.checkpoint t.journal jr "block";
            let root = Secmem.block_base blk in
            for _ = 1 to 4 do
              ignore (Secmem.block_take_page blk)
            done;
            let table_blocks = ref [ blk ] in
            let spt =
              Spt.create ~bus:t.machine.Machine.bus ~root
                ~alloc_table_page:(alloc_table_page t table_blocks)
            in
            let cvm = Cvm.create ~id ~nvcpus ~entry_pc ~spt ~table_blocks in
            (* Measure what decides the first instruction before any
               page: the entry PC, the vCPU count and the shared-vCPU
               mode. Like the page extends, this charges no cycles. *)
            Option.iter
              (fun m ->
                Attest.extend_config m
                  (Printf.sprintf "entry_pc=0x%Lx nvcpus=%d shared_vcpu=%b"
                     entry_pc nvcpus t.cfg.shared_vcpu))
              cvm.Cvm.measurement_ctx;
            add_cvm t cvm;
            Journal.checkpoint t.journal jr "registered";
            seal_all_vcpus t cvm;
            charge t "sm_cvm_create"
              (t.cost.Cost.page_scrub * 4 (* zero the root *)
              + t.cost.Cost.block_grab);
            Journal.mark_done t.journal jr;
            Ok id)
  end

let create_cvm t ~nvcpus ~entry_pc =
  host_call t "create_cvm" (fun () -> create_cvm_impl t ~nvcpus ~entry_pc)

let load_image_impl t ~cvm:id ~gpa data =
  match usable_cvm t id with
  | Error e -> Error e
  | Ok cvm when cvm.Cvm.state <> Cvm.Created -> Error Ecall.Bad_state
  | Ok _ when Int64.rem gpa 4096L <> 0L || not (Layout.is_private_gpa gpa) ->
      Error Ecall.Invalid_param
  | Ok cvm ->
      let bus = t.machine.Machine.bus in
      let cache = Cvm.cache cvm 0 in
      let len = String.length data in
      let npages = (len + 4095) / 4096 in
      (* The payload lives in untrusted memory and is not journaled: a
         crash mid-load leaves a torn measurement, so recovery rolls the
         whole Created CVM back and the host retries from scratch. A
         completed load (even one that returned an error) marks the record
         done — the state it left is well-defined. *)
      let jr =
        Journal.append t.journal (Journal.Op_load { cvm = id; gpa; npages })
      in
      let rec go page =
        if page >= npages then Ok ()
        else begin
          let page_gpa = Int64.add gpa (Int64.of_int (page * 4096)) in
          (* Each page is written and measured as a slice of [data]: the
             image is copied once, into DRAM. *)
          let off = page * 4096 in
          let chunk_len = min 4096 (len - off) in
          let target =
            match Spt.lookup cvm.Cvm.spt ~gpa:page_gpa with
            | Some pa -> Ok pa
            | None -> begin
                match
                  provide_private_page t cvm cache ~gpa:page_gpa
                    ~after_expand:false
                with
                | Ok (pa, _) -> Ok pa
                | Error `Need_expand -> Error Ecall.No_memory
                | Error (`Map_error _) -> Error Ecall.Invalid_param
              end
          in
          match target with
          | Error e -> Error e
          | Ok pa ->
              Bus.write_sub bus pa data off chunk_len;
              (match cvm.Cvm.measurement_ctx with
              | Some m -> Attest.extend_sub m ~gpa:page_gpa data off chunk_len
              | None -> ());
              Journal.checkpoint t.journal jr (Printf.sprintf "page:%d" page);
              go (page + 1)
        end
      in
      let result = go 0 in
      Journal.mark_done t.journal jr;
      result

let load_image t ~cvm ~gpa data =
  host_call t "load_image" ~cvm (fun () -> load_image_impl t ~cvm ~gpa data)

let finalize_cvm t ~cvm:id =
  host_call t "finalize_cvm" ~cvm:id (fun () ->
      match usable_cvm t id with
      | Error e -> Error e
      | Ok ({ Cvm.state = Cvm.Created; measurement_ctx = Some m; _ } as cvm) ->
          let digest = Attest.seal m in
          cvm.Cvm.measurement <- Some digest;
          cvm.Cvm.measurement_ctx <- None;
          cvm.Cvm.state <- Cvm.Runnable;
          (* Stall-detection baseline: runnable-but-never-entered counts
             as progress from this moment. *)
          note_progress t id;
          Ok digest
      | Ok _ -> Error Ecall.Bad_state)

let install_shared t ~cvm:id ~table_pa =
  host_call t "install_shared" ~cvm:id (fun () ->
      match usable_cvm t id with
      | Error e -> Error e
      (* The subtree root must be a real normal-memory page before the SM
         writes it into the CVM's root table; a wild pointer would make
         every later walk fault inside the SM. *)
      | Ok _
        when Int64.rem table_pa 4096L <> 0L
             || not (Bus.in_dram t.machine.Machine.bus table_pa) ->
          Error Ecall.Invalid_address
      | Ok cvm -> (
          match
            Spt.install_shared_root cvm.Cvm.spt
              ~is_secure:(Secmem.contains t.sm) ~table_pa
          with
          | Ok () -> Ok ()
          | Error _ -> Error Ecall.Denied))

(* The destroy state machine, factored so recovery can replay it: every
   step is idempotent (a second pass scrubs zero pages, frees zero
   blocks, flips no counter), so a crash anywhere inside converges by
   simply running it again. [record], when given, receives progress
   checkpoints — the crash points a sweep visits. *)
let destroy_replay ?record t cvm =
  let id = cvm.Cvm.id in
  let ckpt label = checkpoint ?record t label in
  let was_destroyed = cvm.Cvm.state = Cvm.Destroyed in
  (* Channels die first, while both endpoints' page tables are still
     intact: the teardown's unmap writes table pages that the block
     scrubbing below is about to reclaim. *)
  Sm_chan.chan_sweep_for ?record t id ~reason:"endpoint destroyed";
  (* Scrub every owned page, drop ownership, return blocks. *)
  disown_pages t id;
  (* Unlink the hypervisor subtree while the root table is still
     live, then scrub and return every block. *)
  Spt.clear_shared_root cvm.Cvm.spt;
  ckpt "scrubbed";
  List.iter
    (fun blk ->
      ignore
        (Hier_alloc.scrub_free
           ~zero:(fun ~base ~bytes -> scrub t base bytes)
           t.sm blk))
    (Cvm.owned_blocks cvm);
  (* Drop every stale reference to the recycled blocks: the page
     caches, the table-block list, and the relinquished-page pool.
     Without this a destroyed CVM's cache still aliases blocks the
     next CVM may own (reuse-after-destroy). *)
  Array.iter Page_cache.reset cvm.Cvm.caches;
  cvm.Cvm.table_blocks := [];
  drop_freed t id;
  cvm.Cvm.state <- Cvm.Destroyed;
  if not was_destroyed then Metrics.Registry.inc t.registry "cvm.destroyed";
  ckpt "reclaimed";
  (* Every hart that ever ran this CVM may retain translations into
     the just-freed blocks; without this shootdown the next owner of
     those blocks inherits them (covers migrate_out_commit too,
     which destroys through here). *)
  shootdown_vmid t ~vmid:id ~reason:"destroy";
  Sm_run.forget_exits t cvm;
  drop_seals t cvm;
  (* A migration session whose CVM disappears under it can never
     complete: fold it to Aborted so the ownership audit stays
     truthful. [migrate_out_commit] marks its session Committed
     *before* destroying, so the legitimate handoff is untouched. *)
  t.orphan_sessions id

let destroy_cvm_impl t ~cvm:id =
  match found t.cvms id with
  | Error e -> Error e
  (* Double-destroy must not reach the free list: the blocks were
     already reinserted once and a second [free_block] would corrupt
     the allocator every CVM shares. *)
  | Ok cvm when cvm.Cvm.state = Cvm.Destroyed -> Error Ecall.Bad_state
  | Ok cvm ->
      let jr = Journal.append t.journal (Journal.Op_destroy { cvm = id }) in
      destroy_replay ~record:jr t cvm;
      Journal.mark_done t.journal jr;
      Ok ()

let destroy_cvm t ~cvm =
  host_call t "destroy_cvm" ~cvm (fun () -> destroy_cvm_impl t ~cvm)

(* Recovery replay of a pending lifecycle record; see [Sm_recover]. *)
let replay t ~note ~fwd ~back (r : Journal.record) =
  match r.Journal.op with
  | Journal.Op_create { cvm = id; block_base; nvcpus = _ } -> (
      incr back;
      (* Never mint the journaled id again, even though the op dies. *)
      reserve_cvm_id t id;
      match find_cvm t id with
      | Some cvm ->
          note
            (Printf.sprintf "create #%d: rolled back half-built CVM %d"
               r.Journal.seq id);
          destroy_replay ~record:r t cvm
      | None ->
          if reclaim_orphan_block t block_base then
            note
              (Printf.sprintf "create #%d: reclaimed orphaned block 0x%Lx"
                 r.Journal.seq block_base))
  | Journal.Op_load { cvm = id; _ } -> (
      incr back;
      match find_cvm t id with
      | Some cvm when cvm.Cvm.state = Cvm.Created ->
          (* The measurement is torn mid-extend and can never seal to
             anything attestable: scrub the instance, let the host
             rebuild it from the original image. *)
          note
            (Printf.sprintf "load #%d: rolled back torn CVM %d"
               r.Journal.seq id);
          destroy_replay ~record:r t cvm
      | _ -> ())
  | Journal.Op_expand { base; size } ->
      if List.exists (fun r' -> r' = (base, size)) (Secmem.regions t.sm)
      then begin
        incr fwd;
        (* The region is durably linked; the global PMP/IOPMP resync
           that recovery always performs finishes the registration. *)
        note
          (Printf.sprintf "expand #%d: region 0x%Lx kept (PMP resynced)"
             r.Journal.seq base)
      end
      else begin
        incr back;
        note
          (Printf.sprintf "expand #%d: region 0x%Lx never linked; dropped"
             r.Journal.seq base)
      end
  | Journal.Op_destroy { cvm = id } -> (
      incr fwd;
      match find_cvm t id with
      | Some cvm ->
          note
            (Printf.sprintf "destroy #%d: finished scrubbing CVM %d"
               r.Journal.seq id);
          destroy_replay ~record:r t cvm
      | None -> ())
  | _ -> ()
