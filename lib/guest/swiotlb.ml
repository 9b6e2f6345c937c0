let base = Zion.Layout.shared_gpa_base
let desc_gpa = Zion.Layout.swiotlb_desc_gpa
let tx_desc_gpa = Int64.add base 0x800L
let slot_size = Zion.Layout.swiotlb_slot_size
let slots = Zion.Layout.swiotlb_slots
let slot_gpa = Zion.Layout.swiotlb_slot_gpa

(* Exitless split ring: one 4 KiB page in the shared window, clear of
   the descriptor page and the bounce slots. Byte layout (all fields
   little-endian):

     0x000 + 24*i  descriptor i: data_gpa(8) | len(4) | op(4) | meta(8)
     0x200         avail idx (u32, free-running mod 2^16)
     0x210 + 4*i   avail ring entry i: descriptor index (u32)
     0x300         used idx (u32, free-running mod 2^16)
     0x310 + 8*i   used ring entry i: descriptor id (u32) | len (u32)
*)
let ring_gpa = Zion.Layout.swiotlb_ring_gpa
let ring_entries = 16
let ring_desc_size = 24

let ring_desc_off i =
  if i < 0 || i >= ring_entries then
    invalid_arg "Swiotlb.ring_desc_off: out of range";
  i * ring_desc_size

let ring_avail_idx_off = 0x200

let ring_avail_entry_off i =
  if i < 0 || i >= ring_entries then
    invalid_arg "Swiotlb.ring_avail_entry_off: out of range";
  0x210 + (4 * i)

let ring_used_idx_off = 0x300

let ring_used_entry_off i =
  if i < 0 || i >= ring_entries then
    invalid_arg "Swiotlb.ring_used_entry_off: out of range";
  0x310 + (8 * i)

(* Ring descriptor op codes. *)
let op_blk_read = 0
let op_blk_write = 1
let op_net_tx = 2
let op_net_rx = 3

(* Bounce-slot allocator with typed hygiene errors. Double release is
   rejected with [Bad_state] instead of silently re-linking the slot —
   re-linking would put one slot on the free list twice and hand the
   same bounce buffer to two concurrent requests. *)
type pool = { busy : bool array; mutable live : int }

let create_pool () = { busy = Array.make slots false; live = 0 }

let acquire p =
  let rec find i =
    if i >= slots then Error Zion.Ecall.No_memory
    else if p.busy.(i) then find (i + 1)
    else begin
      p.busy.(i) <- true;
      p.live <- p.live + 1;
      Ok i
    end
  in
  find 0

let release p i =
  if i < 0 || i >= slots then Error Zion.Ecall.Invalid_param
  else if not p.busy.(i) then Error Zion.Ecall.Bad_state
  else begin
    p.busy.(i) <- false;
    p.live <- p.live - 1;
    Ok ()
  end

let in_use p = p.live
let is_busy p i = i >= 0 && i < slots && p.busy.(i)
