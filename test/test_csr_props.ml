(* CSR file coverage and structural property tests for the split page
   table and migration format. *)

open Riscv

let csr_file () = Csr.create ~hartid:3

(* (csrno, settable-value) pairs for plainly-stored machine/supervisor/
   hypervisor CSRs that must round-trip through the numbered interface. *)
let plain_csrs =
  [
    (0x105, 0x8000_1000L) (* stvec *);
    (0x140, 0xDEADL) (* sscratch *);
    (0x142, 5L) (* scause *);
    (0x143, 0x42L) (* stval *);
    (0x180, 0x8000000000081234L) (* satp *);
    (0x205, 0x9000L) (* vstvec *);
    (0x240, 0x1111L) (* vsscratch *);
    (0x242, 8L) (* vscause *);
    (0x243, 0x77L) (* vstval *);
    (0x280, 0x8000000000082222L) (* vsatp *);
    (0x300, 0x8000_0088L) (* mstatus *);
    (0x302, 0xB109L) (* medeleg *);
    (0x303, 0x222L) (* mideleg *);
    (0x304, 0xAAAL) (* mie *);
    (0x305, 0x8000_2000L) (* mtvec *);
    (0x340, 0x1234L) (* mscratch *);
    (0x342, 7L) (* mcause *);
    (0x343, 0x99L) (* mtval *);
    (0x344, 0x80L) (* mip *);
    (0x34a, 0x503033L) (* mtinst *);
    (0x34b, 0x1000L) (* mtval2 *);
    (0x600, 0x80L) (* hstatus *);
    (0x602, 0x109L) (* hedeleg *);
    (0x603, 0x444L) (* hideleg *);
    (0x604, 0x2L) (* hie *);
    (0x643, 0x888L) (* htval *);
    (0x644, 0x4L) (* hip *);
    (0x645, 0x2L) (* hvip *);
    (0x64a, 0x3023L) (* htinst *);
    (0x680, 0x8000000000083333L) (* hgatp *);
  ]

let csr_tests =
  [
    Alcotest.test_case "plain CSRs round-trip from M mode" `Quick (fun () ->
        let c = csr_file () in
        List.iter
          (fun (no, v) ->
            Csr.write c ~priv:Priv.M no v;
            Alcotest.(check int64)
              (Printf.sprintf "csr 0x%x" no)
              v
              (Csr.read c ~priv:Priv.M no))
          plain_csrs);
    Alcotest.test_case "sstatus is a masked view of mstatus" `Quick
      (fun () ->
        let c = csr_file () in
        Csr.write c ~priv:Priv.M 0x300 (-1L) (* everything set *);
        let sstatus = Csr.read c ~priv:Priv.HS 0x100 in
        (* only SIE/SPIE/SPP/SUM/MXR visible *)
        Alcotest.(check int64) "mask" 0xC0122L sstatus;
        (* writing sstatus must not clobber machine bits *)
        Csr.write c ~priv:Priv.HS 0x100 0L;
        Alcotest.(check bool)
          "MIE survived" true
          (Xword.bit (Csr.read c ~priv:Priv.M 0x300) 3));
    Alcotest.test_case "sie/sip are gated by mideleg" `Quick (fun () ->
        let c = csr_file () in
        c.Csr.mideleg <- 0x222L;
        Csr.write c ~priv:Priv.M 0x304 0xFFFL (* mie *);
        Alcotest.(check int64)
          "sie view" 0x222L
          (Csr.read c ~priv:Priv.HS 0x104);
        (* writes through sie only touch delegated bits *)
        Csr.write c ~priv:Priv.HS 0x104 0L;
        Alcotest.(check int64)
          "mie keeps non-delegated" 0xDDDL
          (Csr.read c ~priv:Priv.M 0x304));
    Alcotest.test_case "mepc WARL clears the low bit" `Quick (fun () ->
        let c = csr_file () in
        Csr.write c ~priv:Priv.M 0x341 0x1003L;
        Alcotest.(check int64)
          "aligned" 0x1002L
          (Csr.read c ~priv:Priv.M 0x341));
    Alcotest.test_case "misa advertises RV64 AHIMSU and is read-only"
      `Quick (fun () ->
        let c = csr_file () in
        let misa = Csr.read c ~priv:Priv.M 0x301 in
        let has ch =
          Xword.bit misa (Char.code ch - Char.code 'a')
        in
        List.iter
          (fun ch -> Alcotest.(check bool) (String.make 1 ch) true (has ch))
          [ 'a'; 'h'; 'i'; 'm'; 's'; 'u' ];
        Csr.write c ~priv:Priv.M 0x301 0L;
        Alcotest.(check int64)
          "unchanged" misa
          (Csr.read c ~priv:Priv.M 0x301));
    Alcotest.test_case "mhartid reflects the hart and rejects writes"
      `Quick (fun () ->
        let c = csr_file () in
        Alcotest.(check int64) "id" 3L (Csr.read c ~priv:Priv.M 0xf14);
        Alcotest.(check bool)
          "write rejected" true
          (match Csr.write c ~priv:Priv.M 0xf14 9L with
          | () -> false
          | exception Csr.Illegal_access _ -> true));
    Alcotest.test_case "unknown CSR numbers are illegal" `Quick (fun () ->
        let c = csr_file () in
        Alcotest.(check bool)
          "read" true
          (match Csr.read c ~priv:Priv.M 0x7c0 with
          | _ -> false
          | exception Csr.Illegal_access _ -> true));
  ]

let csr_props =
  [
    QCheck.Test.make ~name:"VS-mode supervisor accesses never leak HS state"
      ~count:100
      QCheck.(pair (int_bound 9) int64)
      (fun (which, v) ->
        let aliases =
          [ (0x100, 0x200); (0x104, 0x204); (0x105, 0x205); (0x140, 0x240);
            (0x141, 0x241); (0x142, 0x242); (0x143, 0x243); (0x144, 0x244);
            (0x180, 0x280); (0x140, 0x240) ]
        in
        let s_no, _vs_no = List.nth aliases which in
        let c = csr_file () in
        (* write via VS alias; HS's own register must stay zero *)
        Csr.write c ~priv:Priv.VS s_no v;
        let hs_view = Csr.read c ~priv:Priv.HS s_no in
        (* For sstatus/sie/sip the HS view filters mstatus/mie, which the
           VS write never touched, so all these must remain 0. *)
        hs_view = 0L);
  ]

(* ---------- Spt model-based property ---------- *)

let spt_props =
  [
    QCheck.Test.make ~name:"spt map/unmap agrees with a reference model"
      ~count:40
      QCheck.(list_of_size Gen.(1 -- 60) (pair (int_bound 63) bool))
      (fun ops ->
        (* operations over 64 distinct GPAs: map (true) / unmap (false) *)
        let machine = Machine.create ~dram_size:0x2000000L () in
        let bus = machine.Machine.bus in
        let next_page = ref 0x100000L in
        let alloc () =
          let p = Int64.add Bus.dram_base !next_page in
          next_page := Int64.add !next_page 4096L;
          Some p
        in
        let root = Int64.add Bus.dram_base 0x80000L in
        let spt = Zion.Spt.create ~bus ~root ~alloc_table_page:alloc in
        let model = Hashtbl.create 64 in
        List.for_all
          (fun (slot, do_map) ->
            let gpa = Int64.of_int (0x10000 + (slot * 4096)) in
            if do_map then begin
              let pa = Option.get (alloc ()) in
              match Zion.Spt.map_private spt ~gpa ~pa ~writable:true with
              | Ok () ->
                  if Hashtbl.mem model gpa then false
                  else begin
                    Hashtbl.replace model gpa pa;
                    true
                  end
              | Error _ -> Hashtbl.mem model gpa (* only legal on double map *)
            end
            else begin
              match Zion.Spt.unmap_private spt ~gpa with
              | Ok pa -> begin
                  match Hashtbl.find_opt model gpa with
                  | Some pa' when pa = pa' ->
                      Hashtbl.remove model gpa;
                      true
                  | _ -> false
                end
              | Error _ -> not (Hashtbl.mem model gpa)
            end
            && (* lookup agrees with the model on this gpa *)
            Zion.Spt.lookup spt ~gpa = Hashtbl.find_opt model gpa
            && Zion.Spt.mapped_private_pages spt = Hashtbl.length model)
          ops);
    QCheck.Test.make ~name:"fold_private enumerates exactly the mapped set"
      ~count:20
      QCheck.(list_of_size Gen.(1 -- 30) (int_bound 200))
      (fun slots ->
        let machine = Machine.create ~dram_size:0x4000000L () in
        let bus = machine.Machine.bus in
        let next_page = ref 0x200000L in
        let alloc () =
          let p = Int64.add Bus.dram_base !next_page in
          next_page := Int64.add !next_page 4096L;
          Some p
        in
        let root = Int64.add Bus.dram_base 0x100000L in
        let spt = Zion.Spt.create ~bus ~root ~alloc_table_page:alloc in
        let expect = Hashtbl.create 16 in
        List.iter
          (fun slot ->
            let gpa = Int64.of_int (0x400000 + (slot * 4096)) in
            if not (Hashtbl.mem expect gpa) then begin
              let pa = Option.get (alloc ()) in
              match Zion.Spt.map_private spt ~gpa ~pa ~writable:true with
              | Ok () -> Hashtbl.replace expect gpa pa
              | Error _ -> ()
            end)
          slots;
        let seen =
          Zion.Spt.fold_private spt
            (fun ~gpa ~pa acc -> (gpa, pa) :: acc)
            []
        in
        List.length seen = Hashtbl.length expect
        && List.for_all
             (fun (gpa, pa) -> Hashtbl.find_opt expect gpa = Some pa)
             seen);
  ]

(* ---------- Migrate format property ---------- *)

let migrate_props =
  [
    QCheck.Test.make ~name:"migration images round-trip" ~count:25
      QCheck.(
        pair
          (list_of_size Gen.(0 -- 4) (int_bound 1000))
          (int_range 1 3))
      (fun (page_seeds, nvcpus) ->
        let mk_vcpu i =
          {
            Zion.Migrate.vi_regs =
              Array.init 32 (fun r -> Int64.of_int ((i * 100) + r));
            vi_pc = Int64.of_int (0x1000 * (i + 1));
            vi_csrs = Array.init 8 (fun c -> Int64.of_int (c * 7));
          }
        in
        let im =
          {
            Zion.Migrate.im_vcpus = List.init nvcpus mk_vcpu;
            im_measurement = Crypto.Sha256.digest "m";
            im_pages =
              List.mapi
                (fun i seed ->
                  ( Int64.of_int (0x100000 + (i * 4096)),
                    String.init 4096 (fun j ->
                        Char.chr ((seed + j) land 0xff)) ))
                page_seeds;
          }
        in
        match Zion.Migrate.unseal (Zion.Migrate.seal ~nonce:"prop" im) with
        | Error _ -> false
        | Ok im' ->
            im'.Zion.Migrate.im_pages = im.Zion.Migrate.im_pages
            && im'.Zion.Migrate.im_measurement = im.Zion.Migrate.im_measurement
            && List.length im'.Zion.Migrate.im_vcpus = nvcpus);
  ]

let suite =
  [
    ("csr.coverage", csr_tests);
    ("csr.properties", List.map QCheck_alcotest.to_alcotest csr_props);
    ("spt.properties", List.map QCheck_alcotest.to_alcotest spt_props);
    ("migrate.properties", List.map QCheck_alcotest.to_alcotest migrate_props);
  ]
