type t = {
  alu : int;
  mul : int;
  div : int;
  load : int;
  store : int;
  branch : int;
  jump : int;
  csr : int;
  fence : int;
  trap_entry : int;
  xret : int;
  gpr_all : int;
  csr_ctx_guest : int;
  csr_ctx_host : int;
  deleg_reprogram : int;
  pmp_toggle : int;
  hgatp_write : int;
  tlb_full_flush : int;
  tlb_vmid_flush : int;
  tlb_refill_per_page : int;
  cache_refill_per_line : int;
  dcache_lines : int;
  tlb_capacity : int;
  page_walk_step : int;
  page_scrub : int;
  vcpu_integrity : int;
  irq_scan : int;
  timer_prog : int;
  exit_cause_decode : int;
  shared_item_store : int;
  shared_item_load : int;
  check_after_load : int;
  ring_submit : int;
  ring_consume_check : int;
  ring_host_poll : int;
  ring_host_service : int;
  ring_notify : int;
  shared_classify : int;
  resume_merge : int;
  ecall_roundtrip : int;
  secure_copy_item : int;
  unshared_validate : int;
  sechyp_trap : int;
  sechyp_xret : int;
  sechyp_ctx : int;
  sechyp_dispatch_entry : int;
  sechyp_dispatch_exit : int;
  sechyp_barrier : int;
  sm_fault_decode : int;
  sm_fault_validate : int;
  sm_fault_bookkeeping : int;
  page_cache_alloc : int;
  block_grab : int;
  expand_host_work : int;
  gstage_map : int;
  kvm_save : int;
  kvm_dispatch : int;
  kvm_memslot : int;
  kvm_host_alloc : int;
  kvm_map : int;
  kvm_fence : int;
  kvm_restore : int;
  hs_timer_tick : int;
  hs_mmio_exit : int;
}

let default =
  {
    alu = 1;
    mul = 4;
    div = 24;
    load = 2;
    store = 1;
    branch = 1;
    jump = 2;
    csr = 20;
    fence = 12;
    trap_entry = 300;
    xret = 200;
    gpr_all = 248; (* 31 registers, 8 cycles each *)
    csr_ctx_guest = 320; (* 16 CSRs *)
    csr_ctx_host = 160; (* 8 CSRs *)
    deleg_reprogram = 120; (* 6 delegation CSR writes *)
    pmp_toggle = 300; (* 2 pmpcfg writes incl. required fences *)
    hgatp_write = 80;
    tlb_full_flush = 400;
    tlb_vmid_flush = 160; (* hfence.gvma with a VMID operand *)
    tlb_refill_per_page = 200;
    cache_refill_per_line = 60;
    dcache_lines = 256; (* 16 KiB / 64 B *)
    tlb_capacity = 32;
    page_walk_step = 200;
    page_scrub = 4100; (* zero 4 KiB with cold lines *)
    vcpu_integrity = 1492;
    irq_scan = 120;
    timer_prog = 40;
    exit_cause_decode = 30;
    shared_item_store = 22;
    shared_item_load = 22;
    check_after_load = 14;
    ring_submit = 120;
    ring_consume_check = 90;
    ring_host_poll = 60;
    ring_host_service = 800;
    ring_notify = 100;
    shared_classify = 30;
    resume_merge = 19;
    ecall_roundtrip = 500;
    secure_copy_item = 40;
    unshared_validate = 41;
    sechyp_trap = 300;
    sechyp_xret = 200;
    sechyp_ctx = 408; (* 31 GPRs + 8 CSRs at the extra hop *)
    sechyp_dispatch_entry = 1146;
    sechyp_dispatch_exit = 870;
    sechyp_barrier = 1200;
    sm_fault_decode = 400;
    sm_fault_validate = 600;
    sm_fault_bookkeeping = 22703;
    page_cache_alloc = 800;
    block_grab = 3626;
    expand_host_work = 14989;
    gstage_map = 1400;
    kvm_save = 868;
    kvm_dispatch = 2000;
    kvm_memslot = 2800;
    kvm_host_alloc = 25871;
    kvm_map = 1400;
    kvm_fence = 600;
    kvm_restore = 868;
    hs_timer_tick = 2000;
    hs_mmio_exit = 5000;
  }

let word_copy c bytes = (bytes + 7) / 8 * (c.load + c.store)

let sm_fault_base c =
  c.trap_entry + c.sm_fault_decode + c.sm_fault_validate + c.page_cache_alloc
  + c.page_scrub + (3 * c.page_walk_step) + c.gstage_map
  + c.sm_fault_bookkeeping + c.xret

let kvm_fault c =
  c.trap_entry + c.kvm_save + c.kvm_dispatch + c.kvm_memslot
  + c.kvm_host_alloc + c.page_scrub + c.kvm_map + (3 * c.page_walk_step)
  + c.kvm_fence + c.kvm_restore + c.xret

let to_assoc c =
  [
    ("alu", c.alu);
    ("mul", c.mul);
    ("div", c.div);
    ("load", c.load);
    ("store", c.store);
    ("branch", c.branch);
    ("jump", c.jump);
    ("csr", c.csr);
    ("fence", c.fence);
    ("trap_entry", c.trap_entry);
    ("xret", c.xret);
    ("gpr_all", c.gpr_all);
    ("csr_ctx_guest", c.csr_ctx_guest);
    ("csr_ctx_host", c.csr_ctx_host);
    ("deleg_reprogram", c.deleg_reprogram);
    ("pmp_toggle", c.pmp_toggle);
    ("hgatp_write", c.hgatp_write);
    ("tlb_full_flush", c.tlb_full_flush);
    ("tlb_vmid_flush", c.tlb_vmid_flush);
    ("tlb_refill_per_page", c.tlb_refill_per_page);
    ("cache_refill_per_line", c.cache_refill_per_line);
    ("dcache_lines", c.dcache_lines);
    ("tlb_capacity", c.tlb_capacity);
    ("page_walk_step", c.page_walk_step);
    ("page_scrub", c.page_scrub);
    ("vcpu_integrity", c.vcpu_integrity);
    ("irq_scan", c.irq_scan);
    ("timer_prog", c.timer_prog);
    ("exit_cause_decode", c.exit_cause_decode);
    ("shared_item_store", c.shared_item_store);
    ("shared_item_load", c.shared_item_load);
    ("check_after_load", c.check_after_load);
    ("ring_submit", c.ring_submit);
    ("ring_consume_check", c.ring_consume_check);
    ("ring_host_poll", c.ring_host_poll);
    ("ring_host_service", c.ring_host_service);
    ("ring_notify", c.ring_notify);
    ("shared_classify", c.shared_classify);
    ("resume_merge", c.resume_merge);
    ("ecall_roundtrip", c.ecall_roundtrip);
    ("secure_copy_item", c.secure_copy_item);
    ("unshared_validate", c.unshared_validate);
    ("sechyp_trap", c.sechyp_trap);
    ("sechyp_xret", c.sechyp_xret);
    ("sechyp_ctx", c.sechyp_ctx);
    ("sechyp_dispatch_entry", c.sechyp_dispatch_entry);
    ("sechyp_dispatch_exit", c.sechyp_dispatch_exit);
    ("sechyp_barrier", c.sechyp_barrier);
    ("sm_fault_decode", c.sm_fault_decode);
    ("sm_fault_validate", c.sm_fault_validate);
    ("sm_fault_bookkeeping", c.sm_fault_bookkeeping);
    ("page_cache_alloc", c.page_cache_alloc);
    ("block_grab", c.block_grab);
    ("expand_host_work", c.expand_host_work);
    ("gstage_map", c.gstage_map);
    ("kvm_save", c.kvm_save);
    ("kvm_dispatch", c.kvm_dispatch);
    ("kvm_memslot", c.kvm_memslot);
    ("kvm_host_alloc", c.kvm_host_alloc);
    ("kvm_map", c.kvm_map);
    ("kvm_fence", c.kvm_fence);
    ("kvm_restore", c.kvm_restore);
    ("hs_timer_tick", c.hs_timer_tick);
    ("hs_mmio_exit", c.hs_mmio_exit);
  ]

let scaled f =
  let s v = int_of_float (Float.round (float_of_int v *. f)) in
  let d = default in
  {
    alu = s d.alu;
    mul = s d.mul;
    div = s d.div;
    load = s d.load;
    store = s d.store;
    branch = s d.branch;
    jump = s d.jump;
    csr = s d.csr;
    fence = s d.fence;
    trap_entry = s d.trap_entry;
    xret = s d.xret;
    gpr_all = s d.gpr_all;
    csr_ctx_guest = s d.csr_ctx_guest;
    csr_ctx_host = s d.csr_ctx_host;
    deleg_reprogram = s d.deleg_reprogram;
    pmp_toggle = s d.pmp_toggle;
    hgatp_write = s d.hgatp_write;
    tlb_full_flush = s d.tlb_full_flush;
    tlb_vmid_flush = s d.tlb_vmid_flush;
    tlb_refill_per_page = s d.tlb_refill_per_page;
    cache_refill_per_line = s d.cache_refill_per_line;
    dcache_lines = d.dcache_lines;
    tlb_capacity = d.tlb_capacity;
    page_walk_step = s d.page_walk_step;
    page_scrub = s d.page_scrub;
    vcpu_integrity = s d.vcpu_integrity;
    irq_scan = s d.irq_scan;
    timer_prog = s d.timer_prog;
    exit_cause_decode = s d.exit_cause_decode;
    shared_item_store = s d.shared_item_store;
    shared_item_load = s d.shared_item_load;
    check_after_load = s d.check_after_load;
    ring_submit = s d.ring_submit;
    ring_consume_check = s d.ring_consume_check;
    ring_host_poll = s d.ring_host_poll;
    ring_host_service = s d.ring_host_service;
    ring_notify = s d.ring_notify;
    shared_classify = s d.shared_classify;
    resume_merge = s d.resume_merge;
    ecall_roundtrip = s d.ecall_roundtrip;
    secure_copy_item = s d.secure_copy_item;
    unshared_validate = s d.unshared_validate;
    sechyp_trap = s d.sechyp_trap;
    sechyp_xret = s d.sechyp_xret;
    sechyp_ctx = s d.sechyp_ctx;
    sechyp_dispatch_entry = s d.sechyp_dispatch_entry;
    sechyp_dispatch_exit = s d.sechyp_dispatch_exit;
    sechyp_barrier = s d.sechyp_barrier;
    sm_fault_decode = s d.sm_fault_decode;
    sm_fault_validate = s d.sm_fault_validate;
    sm_fault_bookkeeping = s d.sm_fault_bookkeeping;
    page_cache_alloc = s d.page_cache_alloc;
    block_grab = s d.block_grab;
    expand_host_work = s d.expand_host_work;
    gstage_map = s d.gstage_map;
    kvm_save = s d.kvm_save;
    kvm_dispatch = s d.kvm_dispatch;
    kvm_memslot = s d.kvm_memslot;
    kvm_host_alloc = s d.kvm_host_alloc;
    kvm_map = s d.kvm_map;
    kvm_fence = s d.kvm_fence;
    kvm_restore = s d.kvm_restore;
    hs_timer_tick = s d.hs_timer_tick;
    hs_mmio_exit = s d.hs_mmio_exit;
  }
