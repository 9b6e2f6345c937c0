exception Trap_exn of Cause.exception_t * int64 * int64

(* Marks a decode-cache slot that holds no word yet. Its raw value is
   not a 32-bit word, so it never equals a fetched one; slots are
   compared with it physically. *)
let no_word : int64 * Decode.t = (-1L, Decode.Illegal (-1L))

(* One decoded-instruction cache way: the pre-decoded words of one
   physical page, validated against the backing page's write
   generation. A stale generation clears the slots; a page that evicts
   the way takes it over, slot array included. *)
type dpage = {
  mutable dp_pa_page : int64;
  mutable dp_phys : Physmem.page;
  mutable dp_gen : int;
  dp_slots : (int64 * Decode.t) array; (* one per 4-byte slot *)
}

(* One translation memo: the last translated page for one access kind
   (fetch, load or store), plus an implied whole-page PMP verdict.
   Valid while every input that could change the slow path's answer —
   or its side effects on TLB statistics — is unchanged: same virtual
   page, mode, raw satp/vsatp/hgatp, PMP configuration epoch and TLB
   structural generation. *)
type amemo = {
  mutable am_valid : bool;
  mutable am_vpage : int64;
  mutable am_mode : Priv.t;
  mutable am_satp : int64;
  mutable am_vsatp : int64;
  mutable am_hgatp : int64;
  mutable am_pmp : int;
  mutable am_tlb : int;
  mutable am_pa_page : int64;
  mutable am_counts_hit : bool;
      (* whether the uncached path would have counted a TLB hit *)
  mutable am_hits : int;
}

(* Fast-path state. Everything here is a memo over architectural state
   owned elsewhere; dropping it at any time is always correct. The
   validity conditions are chosen so that serving from the memo is
   indistinguishable from the uncached path — same traps, same TLB
   statistics, same ledger charges. *)
type fastpath = {
  mutable fp_enabled : bool;
  fm : amemo; (* fetch translations *)
  lm : amemo; (* load translations *)
  sm : amemo; (* store/AMO translations *)
  dcache : dpage option array; (* direct-mapped by PA page *)
  (* Direct-mapped by raw word: the (raw, decoded) pair every cached
     slot holding that word shares. Empty until the first fill. *)
  mutable words : (int64 * Decode.t) array;
  (* CLINT poll memo, maintained by [Exec.step]: the next mtime at
     which the pending state can change, plus the mip bits and CLINT
     generation it was computed from. *)
  mutable cl_gen : int;
  mutable cl_poll_at : int64;
  mutable cl_last_time : int64;
  mutable cl_mtip : bool;
  mutable cl_msip : bool;
  (* Health counters, read through [fast_path_stats]. *)
  mutable st_fills : int;
  mutable st_revalidations : int;
  mutable st_evictions : int;
}

let dcache_ways = 64
let dcache_slots = 4096 / 4
let word_table_bits = 11
let word_table_size = 1 lsl word_table_bits

let fresh_amemo () =
  {
    am_valid = false;
    am_vpage = 0L;
    am_mode = Priv.M;
    am_satp = 0L;
    am_vsatp = 0L;
    am_hgatp = 0L;
    am_pmp = 0;
    am_tlb = 0;
    am_pa_page = 0L;
    am_counts_hit = false;
    am_hits = 0;
  }

let fresh_fastpath () =
  {
    fp_enabled = true;
    fm = fresh_amemo ();
    lm = fresh_amemo ();
    sm = fresh_amemo ();
    dcache = Array.make dcache_ways None;
    words = [||];
    cl_gen = -1;
    cl_poll_at = 0L;
    cl_last_time = 0L;
    cl_mtip = false;
    cl_msip = false;
    st_fills = 0;
    st_revalidations = 0;
    st_evictions = 0;
  }

type fast_path_stats = {
  decode_fills : int;
  revalidations : int;
  evictions : int;
  fetch_memo_hits : int;
  load_memo_hits : int;
  store_memo_hits : int;
}

(* Pre-resolved ledger counters for the per-instruction categories:
   ticking one is observably identical to [Ledger.charge] with the
   matching string, minus the hash. *)
type exec_counters = {
  c_alu : Metrics.Ledger.counter;
  c_jump : Metrics.Ledger.counter;
  c_branch : Metrics.Ledger.counter;
  c_load : Metrics.Ledger.counter;
  c_store : Metrics.Ledger.counter;
  c_muldiv : Metrics.Ledger.counter;
  c_amo : Metrics.Ledger.counter;
  c_csr : Metrics.Ledger.counter;
  c_fence : Metrics.Ledger.counter;
  c_wfi : Metrics.Ledger.counter;
  c_page_walk : Metrics.Ledger.counter;
}

type t = {
  id : int;
  regs : int64 array;
  mutable pc : int64;
  mutable mode : Priv.t;
  csr : Csr.t;
  tlb : Tlb.t;
  bus : Bus.t;
  ledger : Metrics.Ledger.t;
  cost : Cost.t;
  mutable reservation : int64 option;
  mutable wfi_stalled : bool;
  mutable sample_in : int;
  fp : fastpath;
  cnt : exec_counters;
}

let create ?(cost = Cost.default) ?ledger ~id bus =
  let ledger =
    match ledger with Some l -> l | None -> Metrics.Ledger.create ()
  in
  let c = Metrics.Ledger.counter ledger in
  {
    id;
    regs = Array.make 32 0L;
    pc = 0L;
    mode = Priv.M;
    csr = Csr.create ~hartid:id;
    tlb = Tlb.create ();
    bus;
    ledger;
    cost;
    reservation = None;
    wfi_stalled = false;
    sample_in = 0;
    fp = fresh_fastpath ();
    cnt =
      {
        c_alu = c "alu";
        c_jump = c "jump";
        c_branch = c "branch";
        c_load = c "load";
        c_store = c "store";
        c_muldiv = c "muldiv";
        c_amo = c "amo";
        c_csr = c "csr";
        c_fence = c "fence";
        c_wfi = c "wfi";
        c_page_walk = c "page_walk";
      };
  }

let invalidate_fast_path t =
  t.fp.fm.am_valid <- false;
  t.fp.lm.am_valid <- false;
  t.fp.sm.am_valid <- false;
  Array.fill t.fp.dcache 0 dcache_ways None;
  t.fp.cl_gen <- -1

let fence t flush =
  flush t.tlb;
  invalidate_fast_path t

let flush_decode_cache t = Array.fill t.fp.dcache 0 dcache_ways None
let fast_path_enabled t = t.fp.fp_enabled

let fast_path_stats t =
  let fp = t.fp in
  {
    decode_fills = fp.st_fills;
    revalidations = fp.st_revalidations;
    evictions = fp.st_evictions;
    fetch_memo_hits = fp.fm.am_hits;
    load_memo_hits = fp.lm.am_hits;
    store_memo_hits = fp.sm.am_hits;
  }

let set_fast_path t on =
  t.fp.fp_enabled <- on;
  if not on then invalidate_fast_path t

let get_reg t r = if r = 0 then 0L else t.regs.(r)
let set_reg t r v = if r <> 0 then t.regs.(r) <- v

let page_fault_cause (access : Sv39.access) =
  match access with
  | Sv39.Fetch -> Cause.Instr_page_fault
  | Sv39.Load -> Cause.Load_page_fault
  | Sv39.Store -> Cause.Store_page_fault

let guest_page_fault_cause (access : Sv39.access) =
  match access with
  | Sv39.Fetch -> Cause.Instr_guest_page_fault
  | Sv39.Load -> Cause.Load_guest_page_fault
  | Sv39.Store -> Cause.Store_guest_page_fault

let access_fault_cause (access : Sv39.access) =
  match access with
  | Sv39.Fetch -> Cause.Instr_access_fault
  | Sv39.Load -> Cause.Load_access_fault
  | Sv39.Store -> Cause.Store_access_fault

let pmp_access (access : Sv39.access) =
  match access with
  | Sv39.Fetch -> Pmp.Exec
  | Sv39.Load -> Pmp.Read
  | Sv39.Store -> Pmp.Write

(* PTE reads during walks are physical accesses: they must pass PMP at
   the walker's effective privilege (the translation privilege, not M),
   and land in DRAM. *)
let make_env t ~user =
  let csr = t.csr in
  let sum = Xword.bit csr.Csr.mstatus 18 in
  let mxr = Xword.bit csr.Csr.mstatus 19 in
  let read_pte pa =
    if not (Pmp.check csr.Csr.pmp t.mode Pmp.Read pa 8) then None
    else begin
      match Bus.read t.bus pa 8 with
      | v -> Some v
      | exception Bus.Fault _ -> None
    end
  in
  { Sv39.read_pte; sum; mxr; user }

let asid t =
  let csr = t.csr in
  if Priv.virtualized t.mode then Sv39.asid_of_satp csr.Csr.vsatp
  else Sv39.asid_of_satp csr.Csr.satp

let vmid t =
  if Priv.virtualized t.mode then Sv39.vmid_of_hgatp t.csr.Csr.hgatp else 0

(* Translate one stage; [kind] distinguishes the fault type raised.
   [charge] is false for TLB-fill permission probes, which must not
   inflate the cycle model (a real TLB derives the permission bits from
   the one walk it performs). *)
let walk_stage t env ~charge ~root ~widened access va ~on_fault =
  match Sv39.walk env ~root ~widened access va with
  | Ok r ->
      if charge then
        Metrics.Ledger.tick t.cnt.c_page_walk
          (r.Sv39.steps * t.cost.Cost.page_walk_step);
      r.Sv39.pa
  | Error Sv39.Page_fault -> on_fault `Page
  | Error Sv39.Access_fault -> on_fault `Access

let translate_uncached ?(charge = true) t access va =
  let csr = t.csr in
  let mode = t.mode in
  let raise_stage1 kind =
    match kind with
    | `Page -> raise (Trap_exn (page_fault_cause access, va, 0L))
    | `Access -> raise (Trap_exn (access_fault_cause access, va, 0L))
  in
  let raise_stage2 gpa kind =
    match kind with
    | `Page ->
        raise
          (Trap_exn
             ( guest_page_fault_cause access,
               va,
               Int64.shift_right_logical gpa 2 ))
    | `Access -> raise (Trap_exn (access_fault_cause access, va, 0L))
  in
  let gpa =
    if Priv.virtualized mode then begin
      (* VS-stage translation via vsatp. *)
      match Sv39.root_of_satp csr.Csr.vsatp with
      | None -> va
      | Some root ->
          let env = make_env t ~user:(mode = Priv.VU) in
          walk_stage t env ~charge ~root ~widened:false access va
            ~on_fault:raise_stage1
    end
    else begin
      match mode with
      | Priv.M -> va
      | Priv.HS | Priv.U -> begin
          match Sv39.root_of_satp csr.Csr.satp with
          | None -> va
          | Some root ->
              let env = make_env t ~user:(mode = Priv.U) in
              walk_stage t env ~charge ~root ~widened:false access va
                ~on_fault:raise_stage1
        end
      | Priv.VS | Priv.VU -> assert false
    end
  in
  let pa =
    if Priv.virtualized mode then begin
      (* G-stage translation via hgatp (Sv39x4). *)
      match Sv39.root_of_satp csr.Csr.hgatp with
      | None -> gpa
      | Some root ->
          let env = make_env t ~user:true in
          walk_stage t env ~charge ~root ~widened:true access gpa
            ~on_fault:(raise_stage2 gpa)
    end
    else gpa
  in
  pa

let needs_translation t =
  Priv.virtualized t.mode
  || (t.mode <> Priv.M && Sv39.root_of_satp t.csr.Csr.satp <> None)

let translate ?(len = 1) t access va =
  (* TLB hit path: permissions were validated when the entry was
     inserted; the stored flags gate the access kind. PMP is checked
     over the full [len]-byte range — accesses are naturally aligned,
     so the range never leaves the page. *)
  let key_asid = asid t and key_vmid = vmid t in
  if not (needs_translation t) then begin
    let pa = va in
    if not (Pmp.check t.csr.Csr.pmp t.mode (pmp_access access) pa len) then
      raise (Trap_exn (access_fault_cause access, va, 0L));
    pa
  end
  else begin
    match Tlb.lookup t.tlb ~asid:key_asid ~vmid:key_vmid va with
    | Some e
      when (match access with
           | Sv39.Fetch -> e.Tlb.executable
           | Sv39.Load -> e.Tlb.readable
           | Sv39.Store -> e.Tlb.writable) ->
        let pa = Int64.logor e.Tlb.pa_page (Int64.logand va 0xFFFL) in
        if not (Pmp.check t.csr.Csr.pmp t.mode (pmp_access access) pa len)
        then raise (Trap_exn (access_fault_cause access, va, 0L));
        pa
    | Some _ | None ->
        let pa = translate_uncached t access va in
        if not (Pmp.check t.csr.Csr.pmp t.mode (pmp_access access) pa len)
        then raise (Trap_exn (access_fault_cause access, va, 0L));
        (* Re-derive page permissions for the TLB entry by probing the
           three access kinds; insert with whatever succeeds. Probes
           are uncharged: a real TLB gets the permission bits from the
           single walk it already performed. *)
        let probe a =
          match
            translate_uncached ~charge:false t a (Xword.align_down va 4096L)
          with
          | _ -> true
          | exception Trap_exn _ -> false
        in
        let entry =
          {
            Tlb.pa_page = Xword.align_down pa 4096L;
            readable = (match access with Sv39.Load -> true | _ -> probe Sv39.Load);
            writable =
              (match access with Sv39.Store -> true | _ -> probe Sv39.Store);
            executable =
              (match access with Sv39.Fetch -> true | _ -> probe Sv39.Fetch);
          }
        in
        Tlb.insert t.tlb ~asid:key_asid ~vmid:key_vmid va entry;
        pa
  end

let check_align access va len =
  if not (Xword.is_aligned va len) then begin
    match access with
    | Sv39.Fetch -> raise (Trap_exn (Cause.Instr_addr_misaligned, va, 0L))
    | Sv39.Load -> raise (Trap_exn (Cause.Load_addr_misaligned, va, 0L))
    | Sv39.Store -> raise (Trap_exn (Cause.Store_addr_misaligned, va, 0L))
  end

let page_mask = Int64.lognot 0xFFFL

(* Serve a translation from [m] when it is provably what the slow path
   would produce: same page, mode, raw translation roots, PMP epoch and
   TLB structural generation as when the memo was armed. A memo hit
   must bump the TLB hit counter iff a slow-path lookup would have. *)
let memo_hit t (m : amemo) va =
  m.am_valid
  && Int64.equal (Int64.shift_right_logical va 12) m.am_vpage
  && t.mode = m.am_mode
  && Int64.equal t.csr.Csr.satp m.am_satp
  && Int64.equal t.csr.Csr.vsatp m.am_vsatp
  && Int64.equal t.csr.Csr.hgatp m.am_hgatp
  && Pmp.reconfig_writes t.csr.Csr.pmp = m.am_pmp
  && Tlb.generation t.tlb = m.am_tlb

(* Arm [m] after a successful slow-path translation — but only when the
   whole page passes PMP as one range for this access kind: a sub-page
   PMP boundary could give different offsets different verdicts, which
   a page-granular memo cannot represent. *)
let memo_arm t (m : amemo) access va pa counts_hit =
  let pa_page = Int64.logand pa page_mask in
  if Pmp.check t.csr.Csr.pmp t.mode (pmp_access access) pa_page 4096 then begin
    m.am_valid <- true;
    m.am_vpage <- Int64.shift_right_logical va 12;
    m.am_mode <- t.mode;
    m.am_satp <- t.csr.Csr.satp;
    m.am_vsatp <- t.csr.Csr.vsatp;
    m.am_hgatp <- t.csr.Csr.hgatp;
    m.am_pmp <- Pmp.reconfig_writes t.csr.Csr.pmp;
    m.am_tlb <- Tlb.generation t.tlb;
    m.am_pa_page <- pa_page;
    m.am_counts_hit <- counts_hit
  end
  else m.am_valid <- false

let translate_memo t (m : amemo) access va len =
  if t.fp.fp_enabled && memo_hit t m va then begin
    m.am_hits <- m.am_hits + 1;
    if m.am_counts_hit then Tlb.count_hit t.tlb;
    Int64.logor m.am_pa_page (Int64.logand va 0xFFFL)
  end
  else begin
    let counts_hit = needs_translation t in
    let pa = translate ~len t access va in
    if t.fp.fp_enabled then memo_arm t m access va pa counts_hit;
    pa
  end

let read_mem t va len =
  check_align Sv39.Load va len;
  let pa = translate_memo t t.fp.lm Sv39.Load va len in
  match Bus.read t.bus pa len with
  | v -> v
  | exception Bus.Fault _ ->
      raise (Trap_exn (Cause.Load_access_fault, va, 0L))

let write_mem t va len v =
  check_align Sv39.Store va len;
  let pa = translate_memo t t.fp.sm Sv39.Store va len in
  match Bus.write t.bus pa len v with
  | () -> ()
  | exception Bus.Fault _ ->
      raise (Trap_exn (Cause.Store_access_fault, va, 0L))

(* The read half of an AMO: the spec requires Store/AMO-class
   misaligned/access/page-fault causes for both halves, and the page
   must be writable — so the read half aligns and translates exactly
   like a store. (LR keeps Load-class causes; SC is a plain store.) *)
let amo_read_mem t va len =
  check_align Sv39.Store va len;
  let pa = translate_memo t t.fp.sm Sv39.Store va len in
  match Bus.read t.bus pa len with
  | v -> v
  | exception Bus.Fault _ ->
      raise (Trap_exn (Cause.Store_access_fault, va, 0L))

(* The (raw, decoded) pair for [raw], shared through the word table:
   an instruction word that recurs across cached slots and pages is
   decoded and stored once while it stays resident. Decoding is a pure
   function of the word, so the table never needs invalidating. *)
let shared_word fp raw =
  if Array.length fp.words = 0 then
    fp.words <- Array.make word_table_size no_word;
  (* Fibonacci hashing: the product's top bits depend on every bit of
     the word, so words differing only in an immediate spread out. *)
  let i = (Int64.to_int raw * 0x278DDE6E5FD29F05) lsr (63 - word_table_bits) in
  let e = fp.words.(i) in
  if Int64.equal (fst e) raw then e
  else begin
    let e = (raw, Decode.decode raw) in
    fp.words.(i) <- e;
    e
  end

(* Look up (filling lazily) the decoded word at DRAM address [pa]. *)
let decode_cached t pa =
  let fp = t.fp in
  let pa_page = Int64.logand pa page_mask in
  let idx = Int64.to_int (Int64.shift_right_logical pa 12) land (dcache_ways - 1) in
  let dp =
    match fp.dcache.(idx) with
    | Some dp when Int64.equal dp.dp_pa_page pa_page ->
        let g = Physmem.page_gen dp.dp_phys in
        if dp.dp_gen <> g then begin
          Array.fill dp.dp_slots 0 dcache_slots no_word;
          dp.dp_gen <- g;
          fp.st_revalidations <- fp.st_revalidations + 1
        end;
        dp
    | way -> (
        let phys =
          Physmem.page_handle (Bus.dram t.bus)
            (Int64.sub pa_page Bus.dram_base)
        in
        match way with
        | Some dp ->
            Array.fill dp.dp_slots 0 dcache_slots no_word;
            dp.dp_pa_page <- pa_page;
            dp.dp_phys <- phys;
            dp.dp_gen <- Physmem.page_gen phys;
            fp.st_evictions <- fp.st_evictions + 1;
            dp
        | None ->
            let dp =
              {
                dp_pa_page = pa_page;
                dp_phys = phys;
                dp_gen = Physmem.page_gen phys;
                dp_slots = Array.make dcache_slots no_word;
              }
            in
            fp.dcache.(idx) <- Some dp;
            dp)
  in
  let slot = Int64.to_int (Int64.logand pa 0xFFFL) lsr 2 in
  let e = dp.dp_slots.(slot) in
  if e != no_word then e
  else begin
    let e = shared_word fp (Bus.read t.bus pa 4) in
    dp.dp_slots.(slot) <- e;
    fp.st_fills <- fp.st_fills + 1;
    e
  end

let fetch_decoded t =
  let fp = t.fp in
  let pc = t.pc in
  check_align Sv39.Fetch pc 4;
  let pa = translate_memo t fp.fm Sv39.Fetch pc 4 in
  if fp.fp_enabled && Bus.in_dram t.bus pa then begin
    match decode_cached t pa with
    | entry -> entry
    | exception Bus.Fault _ ->
        raise (Trap_exn (Cause.Instr_access_fault, pc, 0L))
  end
  else begin
    match Bus.read t.bus pa 4 with
    | v -> (v, Decode.decode v)
    | exception Bus.Fault _ ->
        raise (Trap_exn (Cause.Instr_access_fault, pc, 0L))
  end
