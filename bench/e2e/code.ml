open Riscv
open Decode

(* Loop registers. The [Guest.Gprog] sequences only use t0-t2, a0-a2,
   a6, a7 and t3, so s-registers survive them. *)
let s2 = 18
let s3 = 19

let touch_bounce slots =
  List.concat_map
    (fun i -> Guest.Gprog.store_u64 ~gpa:(Guest.Swiotlb.slot_gpa i) 0L)
    slots

let repeat ~times body =
  if times < 1 then invalid_arg "Code.repeat: times < 1";
  (* Every instruction encodes to 4 bytes (no compressed forms). *)
  let back = (4 * List.length body) + 8 in
  if back >= 1 lsl 20 then invalid_arg "Code.repeat: body beyond jal range";
  Asm.li s2 (Int64.of_int times)
  @ body
  @ [
      Op_imm (Add, s2, s2, -1L);
      Branch (Beq, s2, 0, 8L);
      Jal (0, Int64.of_int (-back));
    ]
