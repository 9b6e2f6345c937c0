open Riscv

type t = { bus : Bus.t; mem : Host_mem.t; root : int64 }

let create ~bus mem =
  match Host_mem.alloc_pages mem 1 with
  | None -> Error "shared_map: out of host memory"
  | Some root ->
      Bus.zero_range bus root 4096;
      Ok { bus; mem; root }

let root t = t.root

let check_gpa gpa =
  if not (Zion.Layout.is_shared_gpa gpa) then
    Error "shared_map: GPA outside the shared region"
  else if Int64.rem gpa 4096L <> 0L then Error "shared_map: unaligned GPA"
  else Ok ()

let l1_index gpa = Int64.to_int (Xword.bits gpa ~hi:29 ~lo:21)
let l0_index gpa = Int64.to_int (Xword.bits gpa ~hi:20 ~lo:12)

let read_pte t table i = Bus.read t.bus (Int64.add table (Int64.of_int (i * 8))) 8
let write_pte t table i v = Bus.write t.bus (Int64.add table (Int64.of_int (i * 8))) 8 v

let ensure_l0 t gpa =
  let i1 = l1_index gpa in
  let p = read_pte t t.root i1 in
  if Pte.is_pointer p then Ok (Int64.shift_left (Pte.ppn p) 12)
  else begin
    match Host_mem.alloc_pages t.mem 1 with
    | None -> Error "shared_map: out of host memory"
    | Some l0 ->
        Bus.zero_range t.bus l0 4096;
        write_pte t t.root i1
          (Pte.make_pointer ~ppn:(Int64.shift_right_logical l0 12));
        Ok l0
  end

let write_leaf t gpa pa =
  match ensure_l0 t gpa with
  | Error e -> Error e
  | Ok l0 ->
      write_pte t l0 (l0_index gpa)
        (Pte.make
           ~ppn:(Int64.shift_right_logical pa 12)
           ~r:true ~w:true ~x:false ~u:true ~valid:true ());
      Ok ()

let map t ~gpa ~pa =
  match check_gpa gpa with Error e -> Error e | Ok () -> write_leaf t gpa pa

let unmap t ~gpa =
  match check_gpa gpa with
  | Error _ -> ()
  | Ok () ->
      let p = read_pte t t.root (l1_index gpa) in
      if Pte.is_pointer p then
        write_pte t (Int64.shift_left (Pte.ppn p) 12) (l0_index gpa) 0L

let map_fresh t ~gpa =
  match check_gpa gpa with
  | Error e -> Error e
  | Ok () -> begin
      match Host_mem.alloc_pages t.mem 1 with
      | None -> Error "shared_map: out of host memory"
      | Some pa -> begin
          Bus.zero_range t.bus pa 4096;
          match write_leaf t gpa pa with
          | Ok () -> Ok pa
          | Error e -> Error e
        end
    end

let lookup t ~gpa =
  let p = read_pte t t.root (l1_index gpa) in
  if not (Pte.is_pointer p) then None
  else begin
    let l0 = Int64.shift_left (Pte.ppn p) 12 in
    let leaf = read_pte t l0 (l0_index gpa) in
    if Pte.is_leaf leaf then
      Some
        (Int64.logor
           (Int64.shift_left (Pte.ppn leaf) 12)
           (Xword.bits gpa ~hi:11 ~lo:0))
    else None
  end

let map_secure_page_for_attack t ~gpa ~pa = ignore (write_leaf t gpa pa)
