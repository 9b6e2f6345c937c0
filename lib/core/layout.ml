let shared_gpa_base = 0x4000_0000L
let shared_gpa_size = 0x4000_0000L

let is_shared_gpa gpa =
  (not (Riscv.Xword.ult gpa shared_gpa_base))
  && Riscv.Xword.ult gpa (Int64.add shared_gpa_base shared_gpa_size)

let is_private_gpa gpa = Riscv.Xword.ult gpa shared_gpa_base
let shared_root_index = 1 (* GPA bits 40:30 of 0x4000_0000 *)
let default_block_size = 0x40000L (* 256 KiB *)

let pages_per_block size =
  if size <= 0L || Int64.rem size 4096L <> 0L then
    invalid_arg "Layout.pages_per_block: size must be a positive page multiple";
  Int64.to_int (Int64.div size 4096L)

let virtio_mmio_gpa = 0x1000_1000L
let virtio_mmio_size = 0x1000L

let in_virtio_window gpa =
  (not (Riscv.Xword.ult gpa virtio_mmio_gpa))
  && Riscv.Xword.ult gpa (Int64.add virtio_mmio_gpa virtio_mmio_size)

(* SWIOTLB layout, fixed here (rather than in the guest library) so the
   monitor's audit can reason about the bounce window without a
   dependency inversion; [Guest.Swiotlb] re-exports these. *)
let swiotlb_desc_gpa = shared_gpa_base
let swiotlb_slot_size = 4096
let swiotlb_slots = 64

let swiotlb_slot_gpa i =
  if i < 0 || i >= swiotlb_slots then
    invalid_arg "Layout.swiotlb_slot_gpa: out of range";
  Int64.add shared_gpa_base (Int64.of_int ((1 + i) * swiotlb_slot_size))

let swiotlb_ring_gpa = Int64.add shared_gpa_base 0x80000L

(* Inter-CVM channel window: one 4 KiB secure ring page per channel,
   mapped at the same slot GPA into both endpoints' private halves.
   High in the private half, clear of guest images and the virtio
   window, so demand paging never collides with a channel slot by
   accident. *)
let chan_gpa_base = 0x3000_0000L
let chan_slots = 4096
let chan_ring_size = 4096
let chan_dir_off = 2048 (* offset of the b->a half inside the ring *)
let chan_hdr_size = 16 (* per-direction header: seq (8) + len (8) *)
let chan_max_msg = chan_dir_off - chan_hdr_size

let chan_slot_gpa i =
  if i < 0 || i >= chan_slots then
    invalid_arg "Layout.chan_slot_gpa: out of range";
  Int64.add chan_gpa_base (Int64.of_int (i * chan_ring_size))

let swiotlb_page_gpas () =
  swiotlb_desc_gpa :: swiotlb_ring_gpa
  :: List.init swiotlb_slots swiotlb_slot_gpa
