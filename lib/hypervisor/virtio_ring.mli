(** Exitless virtio split ring over the SWIOTLB shared region.

    The ring page ([Guest.Swiotlb.ring_gpa]) lives in the hypervisor's
    shared subtree, so every byte of it is host-writable at any moment.
    Going exitless therefore extends ZION's Check-after-Load discipline
    from the shared vCPU to the I/O plane:

    - the {e guest view} is the trusted driver model. It keeps a
      private shadow of every descriptor it publishes and, on every
      used-ring consume, re-validates each host-writable field against
      that shadow — used-index monotonicity (no rewind, no advance past
      the outstanding count), used-entry ids (in range, currently in
      flight — no replay), completed lengths (bounded by what was
      posted), and the descriptor bytes themselves (unchanged
      mid-flight). Each violation is a typed {!verdict} and a strike;
      {!max_strikes} strikes, or a stalled ring caught by the poll
      watchdog, degrade the ring: bounce slots are released exactly
      once, and the guest falls back to the exitful MMIO kick path. The
      CVM keeps running — only the device association dies.

    - the {e host view} is a defensive polling device: it clamps a
      runaway avail index to the queue size, bounds-checks descriptor
      GPAs and lengths before DMA (the IOPMP remains the backstop),
      services blk/net requests through the same device paths as the
      MMIO kicks, and publishes the used index once per batch —
      doorbell coalescing.

    The guest view reaches the ring page with CPU loads and stores, and
    refuses a page inside the secure pool, as the hardened entry sweep
    refuses a shared leaf that points there. The host view reaches it
    only as DMA from {!sid}, so the IOPMP refuses a ring GPA that the
    host pointed into the secure pool. Either way, a host that re-aims
    the ring cannot zero, read or write another CVM's page through it. *)

type verdict =
  | V_ok
  | V_used_rewind  (** used idx moved backwards *)
  | V_used_runaway  (** used idx advanced past the outstanding count *)
  | V_bad_id  (** used entry names a descriptor outside the queue *)
  | V_replay  (** used entry names a descriptor not in flight *)
  | V_bad_len  (** completed length exceeds the posted length *)
  | V_desc_mutated  (** descriptor bytes changed while in flight *)
  | V_stall  (** watchdog: outstanding work, no progress *)

val verdict_to_string : verdict -> string

type mode = Exitless | Fallen_back

val max_strikes : int
(** CAL rejections tolerated before the guest degrades (3). *)

val watchdog_polls : int
(** Empty polls with work outstanding before the stall watchdog
    degrades the ring. *)

val sid : int
(** The IOPMP source id of the host's polling device (5). *)

type ctx
(** Shared access context: bus, GPA→PA translation for the ring page,
    the secure pool's membership test, the metrics registry scope and
    the cycle-charging hook. *)

val make_ctx :
  bus:Riscv.Bus.t ->
  translate:(int64 -> int64 option) ->
  secure:(int64 -> bool) ->
  registry:Metrics.Registry.t ->
  cvm:int ->
  cost:Riscv.Cost.t ->
  charge:(string -> int -> unit) ->
  ctx

type guest
type host

val create_pair : ctx -> (guest * host, string) result
(** Fresh guest and host views over a ring page that the host zeroes by
    DMA. [Error] when the ring GPA does not translate or the IOPMP
    denies that DMA; nothing is written then. *)

(** {2 Guest view — trusted driver} *)

val submit :
  guest ->
  op:int ->
  len:int ->
  data_gpa:int64 ->
  meta:int64 ->
  ?slot:int ->
  unit ->
  (int, Zion.Ecall.error) result
(** Publish one descriptor and its avail entry without ringing any
    doorbell. Returns the descriptor id. [Error Bad_state] once the
    ring has fallen back, [Error No_memory] when the queue is full,
    [Error Invalid_address] when the ring page does not translate or
    lies in the secure pool (nothing is written then). [slot], when
    given, is a bounce-slot index from {!guest_pool}
    released automatically on completion or fallback. *)

val consume : guest -> int * verdict
(** Poll the used ring once, Check-after-Load-validating every
    host-writable field. Returns completions retired this poll and the
    verdict; any verdict other than [V_ok] consumed nothing and
    recorded a strike (or degraded the ring). A ring page that does not
    translate or lies in the secure pool is read as a stall: the ring
    falls back at once. *)

val guest_mode : guest -> mode
val outstanding : guest -> int
val guest_pool : guest -> Guest.Swiotlb.pool

val force_fallback : guest -> unit
(** Degrade immediately (external watchdog / teardown path): release
    in-flight bounce slots exactly once, switch to [Fallen_back].
    Idempotent. The ring page is not written: the guest reaches it
    through the host's translation, which may no longer point at the
    page the ring was created on, and the next ring's page is zeroed by
    {!create_pair}. *)

(** {2 Host view — defensive device} *)

val service : host -> blk:Virtio_blk.t -> net:Virtio_net.t -> int
(** Poll the avail ring and service every published request (clamped
    to the queue size), writing used entries as it goes and publishing
    the used index once at the end of the batch. Returns completions
    written. Never raises: malformed descriptors and IOPMP-rejected
    DMA become zero-length error completions, and a ring page the
    IOPMP refuses is a host reject with nothing serviced. *)

val retire : host -> unit
(** Stop servicing (the hypervisor side of ring teardown). *)

val host_active : host -> bool
val served : host -> int
val notifications : host -> int
val host_rejects : host -> int

(** {2 Raw ring access (attacks, chaos, tests)} *)

val peek :
  bus:Riscv.Bus.t ->
  translate:(int64 -> int64 option) ->
  off:int ->
  width:int ->
  int64 option

val poke :
  bus:Riscv.Bus.t ->
  translate:(int64 -> int64 option) ->
  off:int ->
  width:int ->
  int64 ->
  bool
(** Read/write a field of the ring page directly, the way a Byzantine
    host would — no validation, no charging, but as DMA from {!sid},
    like every host access: [None]/[false] when the page does not
    translate or the IOPMP denies the access. [off] is a byte offset
    within the page ({!Guest.Swiotlb.ring_desc_off} etc.). *)
