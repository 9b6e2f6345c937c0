type t = { blk : Virtio_blk.t; net : Virtio_net.t }

let blk_slot = 0x000L
let net_slot = 0x100L

let create ~bus ~disk_sectors =
  {
    blk = Virtio_blk.create ~bus ~capacity_sectors:disk_sectors;
    net = Virtio_net.create ~bus;
  }

let blk t = t.blk
let net t = t.net

let set_translate t f =
  Virtio_blk.set_translate t.blk f;
  Virtio_net.set_translate t.net f

let set_trace t tr =
  Virtio_blk.set_trace t.blk tr;
  Virtio_net.set_trace t.net tr

(* Exitless path: drain one CVM's ring through the same two devices
   the MMIO kicks use, so counters, backing store and peer callbacks
   are shared between the two paths. *)
let service_ring t host = Virtio_ring.service host ~blk:t.blk ~net:t.net

let handle t { Zion.Vcpu.mmio_gpa; mmio_write; mmio_size; mmio_data; _ } =
  let off = Int64.sub mmio_gpa Zion.Layout.virtio_mmio_gpa in
  if off < 0L || off >= 0x1000L then 0L
  else if Riscv.Xword.ult off net_slot then
    let off = Int64.sub off blk_slot in
    if not mmio_write then Virtio_blk.mmio_read t.blk off mmio_size
    else (Virtio_blk.mmio_write t.blk off mmio_size mmio_data; 0L)
  else
    let off = Int64.sub off net_slot in
    if not mmio_write then Virtio_net.mmio_read t.net off mmio_size
    else (Virtio_net.mmio_write t.net off mmio_size mmio_data; 0L)
