(* Measured launch: the digest a CVM launch produces, the slice form of
   [Attest.extend], and what loading an image costs the host heap. *)

open Riscv

let pattern n = String.init n (fun i -> Char.chr (((131 * i) + 7) land 0xff))

let tests =
  [
    Alcotest.test_case "launch measurement matches the golden digest" `Quick
      (fun () ->
        (* Pins the SM's measurement format and the SHA-256 kernel
           together: the launch parameters, a partial first-page tail, a
           second region, and a page that is not a whole number of
           SHA-256 blocks. *)
        let tb = Platform.Testbed.create () in
        let image =
          [
            (Platform.Testbed.guest_entry, pattern 12_411);
            (0x100000L, String.make 5_000 'z');
          ]
        in
        match
          Hypervisor.Kvm.create_cvm_guest tb.Platform.Testbed.kvm
            ~entry_pc:Platform.Testbed.guest_entry ~image
        with
        | Error e -> Alcotest.fail e
        | Ok h ->
            Alcotest.(check (option string))
              "measurement"
              (Some
                 "c940f4c3a38b8a8c99ed311b48e0c58f2a5eae3ad6546e98d009ce3babb29eb5")
              (Option.map Crypto.Sha256.to_hex
                 (Zion.Monitor.cvm_measurement tb.Platform.Testbed.monitor
                    ~cvm:(Hypervisor.Kvm.cvm_id h))));
    Alcotest.test_case "launch parameters are part of the measurement"
      `Quick (fun () ->
        (* The host picks the entry PC, the vCPU count and the monitor's
           vCPU mode; a report must tell the same image started any
           other way from the one the tenant attested. *)
        let launch ?config ~nvcpus ~entry_pc () =
          let mon = (Platform.Testbed.create ?config ()).Platform.Testbed.monitor in
          let ok = function
            | Ok v -> v
            | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
          in
          let cvm = ok (Zion.Monitor.create_cvm mon ~nvcpus ~entry_pc) in
          ok
            (Zion.Monitor.load_image mon ~cvm
               ~gpa:Platform.Testbed.guest_entry (pattern 6_000));
          Crypto.Sha256.to_hex (ok (Zion.Monitor.finalize_cvm mon ~cvm))
        in
        let entry = Platform.Testbed.guest_entry in
        let base = launch ~nvcpus:1 ~entry_pc:entry () in
        Alcotest.(check string)
          "same launch, same measurement" base
          (launch ~nvcpus:1 ~entry_pc:entry ());
        let differs what m =
          Alcotest.(check bool) (what ^ " is measured") true (m <> base)
        in
        differs "entry PC" (launch ~nvcpus:1 ~entry_pc:(Int64.add entry 4L) ());
        differs "vCPU count" (launch ~nvcpus:2 ~entry_pc:entry ());
        differs "shared-vCPU mode"
          (launch
             ~config:{ Zion.Monitor.default_config with shared_vcpu = false }
             ~nvcpus:1 ~entry_pc:entry ()));
    Alcotest.test_case "extend_sub measures a slice as extend would" `Quick
      (fun () ->
        let whole = Zion.Attest.start () in
        Zion.Attest.extend whole ~gpa:0x1000L "image-a";
        let slice = Zion.Attest.start () in
        List.iter
          (fun (off, len) ->
            match Zion.Attest.extend_sub slice ~gpa:0x1000L "image-a" off len with
            | () -> Alcotest.failf "slice %d+%d accepted" off len
            | exception Invalid_argument _ -> ())
          [ (-1, 2); (0, -1); (6, 2); (8, 0) ];
        Zion.Attest.extend_sub slice ~gpa:0x1000L "<<image-a>>" 2 7;
        Alcotest.(check string)
          "same digest" (Zion.Attest.seal whole) (Zion.Attest.seal slice));
    Alcotest.test_case "load_image allocates under 8 KiB per loaded page"
      `Quick (fun () ->
        (* A loaded page costs its 4 KiB backing page plus bookkeeping,
           about 7.4 KiB in all. A second copy of each page on the heap
           on the way in (a per-page String.sub) brings it to about
           11.3 KiB. The minor collections at both ends make the count
           exact: without them OCaml 5 only accounts minor allocations
           at collection time, so the delta would depend on when the
           collector last ran. *)
        let tb = Platform.Testbed.create () in
        let mon = tb.Platform.Testbed.monitor in
        let dram = Bus.dram tb.Platform.Testbed.machine.Machine.bus in
        let id =
          match
            Zion.Monitor.create_cvm mon ~nvcpus:1
              ~entry_pc:Platform.Testbed.guest_entry
          with
          | Ok id -> id
          | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e)
        in
        let image = pattern (128 * 4096) in
        let pages0 = Physmem.allocated_pages dram in
        Gc.minor ();
        let bytes0 = Gc.allocated_bytes () in
        (match
           Zion.Monitor.load_image mon ~cvm:id
             ~gpa:Platform.Testbed.guest_entry image
         with
        | Ok () -> ()
        | Error e -> Alcotest.fail (Zion.Ecall.error_to_string e));
        Gc.minor ();
        let bytes = Gc.allocated_bytes () -. bytes0 in
        let pages = Physmem.allocated_pages dram - pages0 in
        Alcotest.(check bool) "every image page materialised" true
          (pages >= 128);
        let per_page = bytes /. float_of_int pages in
        if per_page >= 8192. then
          Alcotest.failf "%.0f bytes allocated per loaded page (%d pages)"
            per_page pages);
  ]

let suite = [ ("launch", tests) ]
