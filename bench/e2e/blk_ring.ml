open Riscv.Decode
module Asm = Riscv.Asm
module Gprog = Guest.Gprog
module Sw = Guest.Swiotlb
module Kvm = Hypervisor.Kvm
module Prng = Workloads.Prng

let batch = 8
let block_requests = 256 (* a multiple of the queue size: descriptor ids repeat per block *)
let full_loops = 32
let sectors = 64
let sector_bytes = 512

(* The host drains the ring on its polling beat, the slice's timer exit. *)
let quantum = 20_000

type req = { write : bool; sector : int; nsec : int; byte : char }

(* Every batch holds four writes and four reads whose lengths come in
   pairs summing to 9 sectors, and each length from 1 to 8 sectors occurs
   equally often; the seed draws the pairs, the order within a batch,
   the sectors and the fill bytes. With a freely drawn mix, how the seed
   happened to group long writes would decide whether a batch misses a
   polling beat, and the normal-VM arm, whose cost grows with write
   length, would move from seed to seed. *)
let gen_block rng =
  let batches = block_requests / batch in
  let pairs = Array.init (4 * batches) (fun i -> 1 + (i mod 4)) in
  Workload.shuffle rng pairs;
  let req write nsec =
    {
      write;
      sector = Prng.int_below rng (sectors - nsec + 1);
      nsec;
      byte = Char.chr (Char.code 'A' + Prng.int_below rng 26);
    }
  in
  Array.concat
    (List.init batches (fun b ->
         let two write k =
           let p = pairs.((4 * b) + k) and q = pairs.((4 * b) + k + 1) in
           [ req write p; req write (9 - p); req write q; req write (9 - q) ]
         in
         let reqs = Array.of_list (two true 0 @ two false 2) in
         Workload.shuffle rng reqs;
         reqs))

(* A guest's block layer fills a bounce slot with doubleword stores; a byte loop
   ([Gprog.fill_bytes]) would make guest instructions, not the ring,
   the cost of a request. *)
let fill_words ~gpa ~byte ~len =
  let word = Int64.mul (Int64.of_int (Char.code byte)) 0x0101_0101_0101_0101L in
  Asm.li Asm.t0 gpa
  @ Asm.li Asm.t1 (Int64.of_int (len / 8))
  @ Asm.li Asm.t2 word
  @ [
      Store { rs1 = Asm.t0; rs2 = Asm.t2; imm = 0L; width = D };
      Op_imm (Add, Asm.t0, Asm.t0, 8L);
      Op_imm (Add, Asm.t1, Asm.t1, -1L);
      Branch (Bne, Asm.t1, 0, -12L);
    ]

let read_slot j = 8 + j
let write_slot j = 16 + j
let avail = Code.s3
let ring off = Int64.add Sw.ring_gpa (Int64.of_int off)

(* [Gprog.ring_publish] stores the avail index as a constant, which a
   looped block cannot do; here it is a running count kept in [avail]. *)
let publish ~id ~op ~len ~data_gpa ~meta =
  let d = Sw.ring_desc_off id in
  Gprog.store_u64 ~gpa:(ring d) data_gpa
  @ Gprog.store_u32 ~gpa:(ring (d + 8)) (Int64.of_int len)
  @ Gprog.store_u32 ~gpa:(ring (d + 12)) (Int64.of_int op)
  @ Gprog.store_u64 ~gpa:(ring (d + 16)) meta
  @ Gprog.store_u32 ~gpa:(ring (Sw.ring_avail_entry_off id)) (Int64.of_int id)
  @ [ Op_imm (Add, avail, avail, 1L) ]
  @ Asm.li Asm.t0 (ring Sw.ring_avail_idx_off)
  @ [ Store { rs1 = Asm.t0; rs2 = avail; imm = 0L; width = W } ]

(* Spin until the used index catches up with [avail] (a register
   compare: [Gprog.ring_wait_used] takes a constant below 2048). *)
let wait_used =
  [
    Lui (Asm.t0, Sw.ring_gpa);
    Load
      { rd = Asm.t2; rs1 = Asm.t0; imm = Int64.of_int Sw.ring_used_idx_off;
        width = W; unsigned = false };
    Branch (Bne, Asm.t2, avail, -4L);
  ]

let exitless_block block =
  List.concat
    (List.mapi
       (fun k r ->
         let j = k mod batch and len = r.nsec * sector_bytes in
         let meta = Int64.of_int r.sector and id = k mod Sw.ring_entries in
         (if r.write then
            fill_words ~gpa:(Sw.slot_gpa (write_slot j)) ~byte:r.byte ~len
            @ publish ~id ~op:Sw.op_blk_write ~len
                ~data_gpa:(Sw.slot_gpa (write_slot j)) ~meta
          else
            publish ~id ~op:Sw.op_blk_read ~len
              ~data_gpa:(Sw.slot_gpa (read_slot j)) ~meta)
         @ if j = batch - 1 then wait_used else [])
       (Array.to_list block))

(* The normal-VM arm: the same stream through exitful MMIO kicks. A
   write prints '0' on success, a read prints the first byte read. *)
let exitful_block block =
  List.concat_map
    (fun r ->
      let len = r.nsec * sector_bytes in
      if r.write then Gprog.blk_write ~sector:r.sector ~len ~byte:r.byte
      else Gprog.blk_read_first_byte ~sector:r.sector ~len)
    (Array.to_list block)

(* The disk as the op stream leaves it: one fill byte per sector. *)
let apply disk r = if r.write then Array.fill disk r.sector r.nsec r.byte

let expected_read disk r =
  String.concat ""
    (List.init r.nsec (fun i -> String.make sector_bytes disk.(r.sector + i)))

(* The exitless arm. Each read the host completes is checked at the
   slice boundary where it was served (the guest has not run since)
   against a disk model replayed in ring order. Returns the failed ops. *)
let run_cvm obs (tb : Platform.Testbed.t) ~image ~block ~total =
  let kvm = tb.Platform.Testbed.kvm in
  match Obs.create_cvm obs tb ~image with
  | Error e -> Obs.fail obs ~ops:0 e; total
  | Ok h -> (
      match Kvm.enable_exitless_io kvm h with
      | Error e -> Obs.fail obs ~ops:0 e; total
      | Ok _ ->
          let host = Option.get (Kvm.exitless_host kvm h) in
          let shared = Kvm.cvm_shared_map h in
          let bus = tb.Platform.Testbed.machine.Riscv.Machine.bus in
          let ledger = tb.Platform.Testbed.machine.Riscv.Machine.ledger in
          let disk = Array.make sectors '\000' and failed = ref 0 in
          let settle ~from ~upto =
            for k = from to upto - 1 do
              let r = block.(k mod block_requests) in
              apply disk r;
              if not r.write then begin
                let gpa = Sw.slot_gpa (read_slot (k mod batch)) in
                let got =
                  match Hypervisor.Shared_map.lookup shared ~gpa with
                  | Some pa -> Riscv.Bus.read_bytes bus pa (r.nsec * sector_bytes)
                  | None -> ""
                in
                if got <> expected_read disk r then incr failed
              end
            done
          in
          let served = ref 0 and last = ref 0 in
          let after_slice _ =
            let now_served = Hypervisor.Virtio_ring.served host in
            settle ~from:!served ~upto:now_served;
            (* One latency sample per completed batch. *)
            if now_served / batch > !served / batch then begin
              let now = Metrics.Ledger.now ledger in
              Obs.sample obs (now - !last);
              last := now;
              Obs.set_op obs (now_served / batch)
            end;
            served := now_served
          in
          Obs.measure obs tb (fun () ->
              last := Metrics.Ledger.now ledger;
              ignore (Obs.run_to_shutdown obs tb (Obs.Cvm h) ~quantum ~after_slice : bool));
          let t = Obs.tally obs in
          t.ring_notifications <- Hypervisor.Virtio_ring.notifications host;
          t.ring_rejects <- Hypervisor.Virtio_ring.host_rejects host;
          if not (Kvm.exitless_active kvm h) then
            Obs.fail obs ~ops:0 "exitless ring fell back to MMIO kicks";
          if t.ring_rejects > 0 then
            Obs.fail obs ~ops:0 "host rejected ring descriptors";
          !failed + (total - !served))

(* The normal-VM arm; its console holds one byte per request. *)
let run_nvm obs tb ~image ~expected =
  let total = String.length expected in
  match Obs.create_nvm obs tb ~image with
  | Error e -> Obs.fail obs ~ops:0 e; total
  | Ok vm ->
      Obs.measure obs tb (fun () ->
          ignore
            (Obs.run_to_shutdown obs tb (Obs.Nvm vm)
               ~quantum:Platform.Testbed.quantum_cycles ~after_slice:ignore
              : bool));
      let console = Riscv.Machine.console_output tb.Platform.Testbed.machine in
      let failed = ref 0 in
      String.iteri
        (fun k c ->
          if k >= String.length console || console.[k] <> c then incr failed)
        expected;
      !failed

let prepare ~seed ~scale =
  let block = gen_block (Prng.create ~seed:(Int64.of_int seed)) in
  let loops = Workload.sized ~scale full_loops in
  let total = block_requests * loops in
  if total >= 0x10000 then invalid_arg "blk_ring: the used index is 16-bit";
  let image ~boot body =
    [ (Platform.Testbed.guest_entry,
       Riscv.Asm.program (boot @ Code.repeat ~times:loops body @ Gprog.shutdown)) ]
  in
  let cvm_image = image ~boot:(Asm.li avail 0L) (exitless_block block)
  and nvm_image = image ~boot:(Code.touch_bounce [ 0; 1 ]) (exitful_block block) in
  (* What the normal VM prints, and the disk the whole stream leaves. *)
  let final_disk = Array.make sectors '\000' in
  let expected =
    String.init total (fun k ->
        let r = block.(k mod block_requests) in
        apply final_disk r;
        if r.write then '0' else final_disk.(r.sector))
  in
  fun arm obs ->
    let tb = Obs.testbed obs in
    let failed =
      match arm with
      | Workload.Cvm -> run_cvm obs tb ~image:cvm_image ~block ~total
      | Workload.Normal -> run_nvm obs tb ~image:nvm_image ~expected
    in
    let blk = Hypervisor.Mmio_emul.blk (Kvm.devices tb.Platform.Testbed.kvm) in
    let t = Obs.tally obs in
    t.blk_bytes <-
      Hypervisor.Virtio_blk.bytes_read blk + Hypervisor.Virtio_blk.bytes_written blk;
    for s = 0 to sectors - 1 do
      if Hypervisor.Virtio_blk.read_backing blk ~sector:s ~len:sector_bytes
         <> String.make sector_bytes final_disk.(s)
      then Obs.fail obs ~ops:0 (Printf.sprintf "sector %d lost its last write" s)
    done;
    if failed > 0 then Obs.fail obs ~ops:failed "blk request checks failed";
    total

let workload = { Workload.name = "blk_ring"; op = "blk request"; prepare }
