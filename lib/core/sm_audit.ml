(* The platform-wide isolation audit. Clauses 8 (migration sessions) and
   11 (channels) live with their tables in [Sm_migrate] and [Sm_chan]. *)

open Riscv
open Sm_state

let audit t =
  let f = { checked = 0; violations = [] } in
  (* 1. Pool closed on every hart (caller runs in Normal mode). *)
  List.iter
    (fun (base, _) ->
      Array.iteri
        (fun i hart ->
          check f
            (not (Pmp.check hart.Hart.csr.Csr.pmp Priv.HS Pmp.Read base 8))
            "pool region 0x%Lx is PMP-open to HS on hart %d" base i)
        t.machine.Machine.harts)
    (Secmem.regions t.sm);
  (* 2. Page-ownership exclusivity across all live CVMs. *)
  let live =
    Hashtbl.fold
      (fun _ c acc -> if c.Cvm.state <> Cvm.Destroyed then c :: acc else acc)
      t.cvms []
  in
  let seen_pa = Hashtbl.create 256 in
  (* Channel ring pages are the one sanctioned two-owner exception: the
     channel table, not [page_owner], is their ownership ground truth,
     and clause 11 pins down exactly which two mappers are legal. *)
  let chan_ring = Hashtbl.create 8 in
  Hashtbl.iter
    (fun _ ch ->
      match ch.ch_page with
      | Some pa when Sm_chan.chan_live ch -> Hashtbl.replace chan_ring pa ch
      | _ -> ())
    t.channels;
  List.iter
    (fun cvm ->
      Spt.fold_private cvm.Cvm.spt
        (fun ~gpa ~pa () ->
          (match Hashtbl.find_opt chan_ring pa with
          | Some ch ->
              check f
                (ch.ch_phase = Chan_established)
                "CVM %d maps ring page 0x%Lx of un-established channel %d"
                cvm.Cvm.id pa ch.ch_id;
              check f
                (cvm.Cvm.id = ch.ch_a || cvm.Cvm.id = ch.ch_b)
                "CVM %d maps channel %d ring page 0x%Lx but is not an \
                 endpoint"
                cvm.Cvm.id ch.ch_id pa;
              check f (gpa = ch.ch_gpa)
                "CVM %d maps channel %d ring page 0x%Lx at GPA 0x%Lx, \
                 expected slot 0x%Lx"
                cvm.Cvm.id ch.ch_id pa gpa ch.ch_gpa
          | None ->
              check f (Secmem.contains t.sm pa)
                "CVM %d maps GPA 0x%Lx to non-secure PA 0x%Lx" cvm.Cvm.id
                gpa pa;
              check f
                (Hashtbl.find_opt t.page_owner pa = Some cvm.Cvm.id)
                "CVM %d maps PA 0x%Lx it does not own" cvm.Cvm.id pa;
              (match Hashtbl.find_opt seen_pa pa with
              | Some other ->
                  fail f "PA 0x%Lx backs both CVM %d and CVM %d" pa other
                    cvm.Cvm.id
              | None -> Hashtbl.add seen_pa pa cvm.Cvm.id));
          tick f)
        ())
    live;
  (* 3. No CVM's page-table pages are guest-mapped anywhere. *)
  let table_pages = Hashtbl.create 64 in
  List.iter
    (fun cvm ->
      Hashtbl.replace table_pages (Spt.root cvm.Cvm.spt) cvm.Cvm.id;
      List.iter
        (fun pa -> Hashtbl.replace table_pages pa cvm.Cvm.id)
        (Spt.table_pages cvm.Cvm.spt))
    live;
  Hashtbl.iter
    (fun pa owner ->
      tick f;
      match Hashtbl.find_opt table_pages pa with
      | Some table_owner ->
          fail f "page-table page 0x%Lx of CVM %d is guest-mapped by CVM %d"
            pa table_owner owner
      | None -> ())
    seen_pa;
  (* 4. Shared subtrees never reference secure memory. *)
  List.iter
    (fun cvm ->
      tick f;
      match Spt.validate_shared cvm.Cvm.spt ~is_secure:(Secmem.contains t.sm) with
      | Ok _ -> ()
      | Error msg -> fail f "CVM %d shared subtree: %s" cvm.Cvm.id msg)
    live;
  (* 5. Allocator structural invariants. *)
  tick f;
  (match Secmem.check_invariants t.sm with
  | Ok () -> ()
  | Error msg -> fail f "secure memory list: %s" msg);
  (* 6. No owned page lies inside a block the allocator considers free
     (region bases are block-aligned, so the containing block's base is
     just the page rounded down to the block size). *)
  let blk = Secmem.block_size t.sm in
  let free_bases = Hashtbl.create 64 in
  List.iter
    (fun b -> Hashtbl.replace free_bases b ())
    (Secmem.free_list_bases t.sm);
  Hashtbl.iter
    (fun pa owner ->
      tick f;
      let base = Int64.mul (Int64.div pa blk) blk in
      if Hashtbl.mem free_bases base then
        fail f "PA 0x%Lx owned by CVM %d lies in free block 0x%Lx" pa owner
          base)
    t.page_owner;
  (* 7. Secure vCPU state of every parked CVM matches its seal: nothing
     outside the SM's own world switch has touched it. *)
  List.iter
    (fun cvm ->
      if cvm.Cvm.state <> Cvm.Running then
        for i = 0 to Cvm.nvcpus cvm - 1 do
          tick f;
          match Hashtbl.find_opt t.vcpu_seal (cvm.Cvm.id, i) with
          | None -> fail f "CVM %d vCPU %d has no seal" cvm.Cvm.id i
          | Some sealed ->
              if vcpu_checksum (Cvm.vcpu cvm i) <> sealed then
                fail f "CVM %d vCPU %d secure state diverges from its seal"
                  cvm.Cvm.id i
        done)
    live;
  (* 8. Migration-session ownership. *)
  Sm_migrate.audit_sessions t f ~live;
  (* 9. TLB coherence. With VMID-tagged retention a translation can
     outlive the switch that installed it, so precision bugs surface
     here: no hart may cache an entry targeting a free secure block, a
     secure page its CVM no longer maps (scrubbed / relinquished), or
     secure memory at all under a VMID that belongs to no runnable CVM
     (host, normal VMs, quarantined, destroyed or migrated-out
     guests). *)
  let mapped_pa = Hashtbl.create 256 in
  List.iter
    (fun cvm ->
      Spt.fold_private cvm.Cvm.spt
        (fun ~gpa:_ ~pa () -> Hashtbl.replace mapped_pa (cvm.Cvm.id, pa) ())
        ())
    live;
  let live_by_id = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace live_by_id c.Cvm.id c) live;
  Array.iteri
    (fun i hart ->
      Tlb.fold hart.Hart.tlb
        (fun ~asid:_ ~vmid ~vpage entry () ->
          tick f;
          let pa = entry.Tlb.pa_page in
          if Secmem.contains t.sm pa then begin
            let base = Int64.mul (Int64.div pa blk) blk in
            if Hashtbl.mem free_bases base then
              fail f
                "hart %d TLB: vmid %d vpage 0x%Lx targets PA 0x%Lx in \
                 free block 0x%Lx"
                i vmid vpage pa base
            else
              match Hashtbl.find_opt live_by_id vmid with
              | None ->
                  fail f
                    "hart %d TLB: vmid %d (no live CVM) still translates \
                     vpage 0x%Lx to secure PA 0x%Lx"
                    i vmid vpage pa
              | Some c when c.Cvm.state = Cvm.Quarantined ->
                  fail f
                    "hart %d TLB: quarantined CVM %d still translates \
                     vpage 0x%Lx to secure PA 0x%Lx"
                    i vmid vpage pa
              | Some c ->
                  if not (Hashtbl.mem mapped_pa (c.Cvm.id, pa)) then
                    fail f
                      "hart %d TLB: CVM %d caches vpage 0x%Lx -> PA \
                       0x%Lx it no longer maps"
                      i vmid vpage pa
          end)
        ())
    t.machine.Machine.harts;
  (* 10. SWIOTLB / bounce hygiene. Every page of the bounce window —
     descriptor page, exitless ring page, bounce slots — is host
     territory by construction, so wherever a live CVM's shared
     subtree maps one, the backing PA must be outside the secure pool
     and unaccounted to any CVM; and no two SWIOTLB pages of one CVM
     may share a PA (an aliased bounce slot hands the same buffer to
     two concurrent requests). *)
  let swiotlb_gpas = Layout.swiotlb_page_gpas () in
  List.iter
    (fun cvm ->
      let seen_bounce = Hashtbl.create 67 in
      List.iter
        (fun gpa ->
          match Spt.lookup cvm.Cvm.spt ~gpa with
          | None -> ()
          | Some pa ->
              check f
                (not (Secmem.contains t.sm pa))
                "CVM %d bounce page GPA 0x%Lx aliases secure PA 0x%Lx"
                cvm.Cvm.id gpa pa;
              check f
                (not (Hashtbl.mem t.page_owner pa))
                "CVM %d bounce page GPA 0x%Lx aliases owned private PA \
                 0x%Lx"
                cvm.Cvm.id gpa pa;
              (match Hashtbl.find_opt seen_bounce pa with
              | Some other ->
                  fail f
                    "CVM %d bounce pages GPA 0x%Lx and GPA 0x%Lx alias \
                     the same PA 0x%Lx"
                    cvm.Cvm.id other gpa pa
              | None -> Hashtbl.add seen_bounce pa gpa);
              tick f)
        swiotlb_gpas)
    live;
  (* 11. Channel ownership. *)
  Sm_chan.audit_channels t f ~free_bases;
  if f.violations = [] then Ok f.checked else Error (List.rev f.violations)
