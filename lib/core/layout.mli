(** Address-space layout conventions of the ZION platform.

    Guest-physical space is split per the paper's split-page-table
    design: a {e private} half, whose mappings only the Secure Monitor
    may create (backed by secure memory), and a {e shared} half managed
    directly by the hypervisor (backed by normal memory, used for
    SWIOTLB/virtio buffers). The split falls on a 1 GiB boundary so the
    shared half is exactly one root-table slot of the Sv39x4 G-stage
    table. *)

val shared_gpa_base : int64
(** 0x4000_0000: first guest-physical address of the shared region. *)

val shared_gpa_size : int64
(** 1 GiB. *)

val is_shared_gpa : int64 -> bool
val is_private_gpa : int64 -> bool

val shared_root_index : int
(** Index of the shared region's slot in the 2048-entry Sv39x4 root. *)

val default_block_size : int64
(** 256 KiB — the paper's default secure-memory block size. *)

val pages_per_block : int64 -> int
(** Number of 4 KiB pages in a block of the given size. *)

val virtio_mmio_gpa : int64
(** Guest-physical base of the virtio-MMIO window (in the private half
    but never mapped, so guest accesses exit as MMIO). *)

val virtio_mmio_size : int64

val in_virtio_window : int64 -> bool
(** A stage-2 fault on a GPA in this window is a device access to
    emulate, for a CVM and a normal VM alike. *)

(** {2 SWIOTLB window}

    Canonical layout of the guest bounce-buffer area inside the shared
    window. Fixed here so the monitor's audit (bounce-hygiene section)
    and the guest library agree on one source of truth;
    [Guest.Swiotlb] re-exports these under its traditional names. *)

val swiotlb_desc_gpa : int64
(** Descriptor page at the base of the shared window. *)

val swiotlb_slot_size : int
(** 4 KiB. *)

val swiotlb_slots : int
(** Number of bounce slots following the descriptor page. *)

val swiotlb_slot_gpa : int -> int64
(** GPA of bounce slot [i]. Raises [Invalid_argument] out of range. *)

val swiotlb_ring_gpa : int64
(** One 4 KiB page holding the exitless virtio split ring
    (descriptor table, avail ring, used ring), clear of the bounce
    slots. *)

val swiotlb_page_gpas : unit -> int64 list
(** Every SWIOTLB page GPA: descriptor page, ring page, all slots. *)

(** {2 Inter-CVM channel window}

    Attested channels map one secure 4 KiB ring page into {e both}
    endpoints' private halves at the same slot GPA. The window sits
    high in the private half so guest images and demand paging never
    collide with a slot. Each ring splits into two 2 KiB directional
    halves (a→b at offset 0, b→a at [chan_dir_off]), each carrying a
    16-byte header — free-running sequence number and message length
    — followed by the payload. *)

val chan_gpa_base : int64
(** 0x3000_0000: base of the channel slot window. *)

val chan_slots : int
val chan_ring_size : int

val chan_dir_off : int
(** Byte offset of the b→a half inside the ring page (2048). *)

val chan_hdr_size : int
(** Per-direction header bytes: seq (8) + len (8). *)

val chan_max_msg : int
(** Largest payload one directional half can carry (2032 bytes). *)

val chan_slot_gpa : int -> int64
(** GPA of channel slot [i]. Raises [Invalid_argument] out of range. *)
