(** Guest-side SWIOTLB layout.

    A confidential VM cannot let devices touch its private memory, so —
    exactly as the paper's prototype configures Linux — all virtio
    traffic bounces through buffers inside the shared GPA window. This
    module fixes the layout that the guest programs and the examples
    use:

    - descriptor area: one 4 KiB page at the base of the shared window;
    - bounce slots: fixed-size slots following it. *)

val base : int64
(** First GPA of the SWIOTLB area ([Zion.Layout.shared_gpa_base]). *)

val desc_gpa : int64
(** Where guest drivers place device descriptors. *)

val tx_desc_gpa : int64
(** Descriptor slot for net TX (second half of the descriptor page). *)

val slot_size : int
(** 4 KiB. *)

val slots : int
(** Number of bounce slots laid out. *)

val slot_gpa : int -> int64
(** GPA of bounce slot [i]. Raises [Invalid_argument] out of range. *)

(** {2 Exitless split ring}

    One 4 KiB page ([Zion.Layout.swiotlb_ring_gpa]) holding a
    virtio-style split ring: a descriptor table, an avail ring the
    guest publishes to, and a used ring the host completes into. All
    fields little-endian; both indices free-running modulo 2^16. *)

val ring_gpa : int64
(** GPA of the ring page. *)

val ring_entries : int
(** Queue size (16); descriptor ids and ring positions are modulo
    this. *)

val ring_desc_size : int
(** Bytes per descriptor: data_gpa(8) | len(4) | op(4) | meta(8). *)

val ring_desc_off : int -> int
(** Byte offset of descriptor [i] within the ring page. *)

val ring_avail_idx_off : int
val ring_avail_entry_off : int -> int
val ring_used_idx_off : int
val ring_used_entry_off : int -> int
(** Used entry [i]: descriptor id (u32) | completed length (u32). *)

val op_blk_read : int
val op_blk_write : int
val op_net_tx : int
val op_net_rx : int
(** Descriptor op codes; [meta] is the sector number for blk ops and
    unused otherwise. *)

(** {2 Bounce-slot allocator}

    Slot hygiene for guest drivers: acquire/release with typed errors.
    Double release returns [Bad_state] instead of silently re-linking
    the slot (which would put it on the free list twice and alias one
    bounce buffer across two requests). *)

type pool

val create_pool : unit -> pool

val acquire : pool -> (int, Zion.Ecall.error) result
(** Take a free slot index; [Error No_memory] when exhausted. *)

val release : pool -> int -> (unit, Zion.Ecall.error) result
(** Return a slot. [Error Invalid_param] out of range,
    [Error Bad_state] if the slot is not currently held. *)

val in_use : pool -> int
val is_busy : pool -> int -> bool
