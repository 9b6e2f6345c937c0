(* Crypto substrate tests: published vectors for SHA-2 and AES, and
   structural properties for NORX (round-trip, tamper detection). *)

let check_hex name expected got = Alcotest.(check string) name expected got

(* Lengths either side of the one-block (55/56) and block-size
   (63/64/65) padding boundaries, one and two blocks in, fed one byte at
   a time and as one slice at an even and an odd offset. *)
let padding_edges init () =
  List.iter
    (fun len ->
      let msg = String.init len (fun i -> Char.chr ((i * 7) land 0xff)) in
      let expected = Sha256_ref.hex msg in
      let ctx = init () in
      String.iter (fun c -> Crypto.Sha256.update ctx (String.make 1 c)) msg;
      check_hex
        (Printf.sprintf "bytewise %d" len)
        expected
        (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx));
      List.iter
        (fun off ->
          let ctx = init () in
          Crypto.Sha256.update_sub ctx (String.make off '.' ^ msg ^ "..") off
            len;
          check_hex
            (Printf.sprintf "slice %d at offset %d" len off)
            expected
            (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
        [ 0; 1; 3 ])
    [ 0; 55; 56; 63; 64; 65; 119; 120; 127; 128; 129 ]

(* 1,024 blocks at an odd offset. The OCaml rounds keep their 64-bit
   words in unboxed locals, so a word that got boxed would cost heap on
   every round; the C kernel takes every block in one [@@noalloc] call. *)
let allocates_nothing init () =
  let msg = String.make 65536 'x' in
  let ctx = init () in
  Crypto.Sha256.update ctx msg;
  let before = Gc.minor_words () in
  Crypto.Sha256.update_sub ctx msg 1 65534;
  let words = Gc.minor_words () -. before in
  if words > 64. then Alcotest.failf "%.0f heap words for 1,024 blocks" words

let sha256_tests =
  [
    Alcotest.test_case "empty" `Quick (fun () ->
        check_hex "sha256(\"\")"
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (Crypto.Sha256.hex ""));
    Alcotest.test_case "abc" `Quick (fun () ->
        check_hex "sha256(abc)"
          "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
          (Crypto.Sha256.hex "abc"));
    Alcotest.test_case "two-block message" `Quick (fun () ->
        check_hex "sha256(abcdbcde...)"
          "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
          (Crypto.Sha256.hex
             "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"));
    Alcotest.test_case "million a (streaming)" `Slow (fun () ->
        let ctx = Crypto.Sha256.init () in
        let chunk = String.make 1000 'a' in
        for _ = 1 to 1000 do
          Crypto.Sha256.update ctx chunk
        done;
        check_hex "sha256(a*1e6)"
          "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
          (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)));
    Alcotest.test_case "incremental = one-shot across split points" `Quick
      (fun () ->
        let msg = String.init 300 (fun i -> Char.chr (i land 0xff)) in
        let whole = Crypto.Sha256.hex msg in
        List.iter
          (fun cut ->
            let ctx = Crypto.Sha256.init () in
            Crypto.Sha256.update ctx (String.sub msg 0 cut);
            Crypto.Sha256.update ctx
              (String.sub msg cut (String.length msg - cut));
            check_hex
              (Printf.sprintf "split at %d" cut)
              whole
              (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)))
          [ 0; 1; 55; 56; 63; 64; 65; 128; 200; 300 ]);
    Alcotest.test_case "padding edges match the reference" `Quick
      (padding_edges Crypto.Sha256.init);
    Alcotest.test_case "update_sub rejects slices outside the string" `Quick
      (fun () ->
        let ctx = Crypto.Sha256.init () in
        List.iter
          (fun (off, len) ->
            match Crypto.Sha256.update_sub ctx "abcdefgh" off len with
            | () -> Alcotest.failf "slice %d+%d accepted" off len
            | exception Invalid_argument _ -> ())
          [ (-1, 2); (0, -1); (7, 2); (9, 0); (0, max_int) ];
        check_hex "context untouched"
          "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
          (Crypto.Sha256.to_hex (Crypto.Sha256.finalize ctx)));
    Alcotest.test_case "hashing allocates nothing per block" `Quick
      (allocates_nothing Crypto.Sha256.init);
  ]

(* The word-at-a-time kernel against the frozen byte-at-a-time one, on
   messages up to 20 KiB fed in arbitrary pieces. *)
let gen_msg = QCheck.Gen.(string_size ~gen:char (int_range 0 20480))

let print_msg (msg, _) = Printf.sprintf "<%d-byte message>" (String.length msg)

let split_prop ~name init =
  QCheck.Test.make ~name ~count:150
    (QCheck.make ~print:print_msg
       QCheck.Gen.(
         pair gen_msg (list_size (int_range 0 8) (int_range 0 20480))))
    (fun (msg, cuts) ->
      let n = String.length msg in
      let cuts =
        List.sort_uniq compare (List.map (fun c -> c mod (n + 1)) cuts)
      in
      let ctx = init () in
      let last =
        List.fold_left
          (fun pos cut ->
            Crypto.Sha256.update ctx (String.sub msg pos (cut - pos));
            cut)
          0 cuts
      in
      Crypto.Sha256.update ctx (String.sub msg last (n - last));
      Crypto.Sha256.finalize ctx = Sha256_ref.digest msg)

let slice_prop ~name init =
  QCheck.Test.make ~name ~count:150
    (QCheck.make ~print:print_msg
       QCheck.Gen.(
         pair gen_msg
           (triple (int_range 0 200) (int_range 0 200) (int_range 0 9))))
    (fun (msg, (before, after, pieces)) ->
      (* [msg] embedded at an arbitrary offset of a larger string and
         fed as [pieces + 1] consecutive slices of it. *)
      let n = String.length msg in
      let host = String.make before 'L' ^ msg ^ String.make after 'R' in
      let ctx = init () in
      let step = (n / (pieces + 1)) + 1 in
      let rec feed pos =
        if pos < n then begin
          let len = min step (n - pos) in
          Crypto.Sha256.update_sub ctx host (before + pos) len;
          feed (pos + len)
        end
      in
      feed 0;
      Crypto.Sha256.finalize ctx = Sha256_ref.digest msg)

let sha256_split_prop =
  split_prop ~name:"sha256 = reference for any split of the input"
    Crypto.Sha256.init

let sha256_slice_prop =
  slice_prop ~name:"sha256 update_sub = reference on a slice"
    Crypto.Sha256.init

(* The checks above once more on each kernel by name, whichever one
   CPUID picked. A kernel this host lacks reports its cases as
   skipped. *)
let kernel_tests =
  let module K = Crypto.Sha256.Kernel in
  let per_kernel k =
    let name what = Printf.sprintf "%s kernel: %s" (K.name k) what in
    let init () = Crypto.Sha256.init_on k in
    let cases =
      [
        Alcotest.test_case (name "padding edges = reference") `Quick
          (padding_edges init);
        Alcotest.test_case (name "allocates nothing per block") `Quick
          (allocates_nothing init);
        QCheck_alcotest.to_alcotest
          (split_prop ~name:(name "any split = reference") init);
        QCheck_alcotest.to_alcotest
          (slice_prop ~name:(name "slice at any offset = reference") init);
      ]
    in
    if K.available k then cases
    else
      List.map
        (fun (n, speed, _) -> Alcotest.test_case n speed Alcotest.skip)
        cases
  in
  let cpuinfo_lists_sha_ni () =
    match In_channel.with_open_text "/proc/cpuinfo" In_channel.input_all with
    | text ->
        List.exists
          (fun line ->
            String.starts_with ~prefix:"flags" line
            && List.mem "sha_ni" (String.split_on_char ' ' line))
          (String.split_on_char '\n' text)
    | exception Sys_error _ -> false
  in
  List.concat_map per_kernel [ K.Ocaml; K.Sha_ni ]
  @ [
      (* A build that silently compiled the C stub's fallback would
         still pass every digest check above. *)
      Alcotest.test_case "sha-ni is active where cpuinfo lists sha_ni"
        `Quick (fun () ->
          if not (cpuinfo_lists_sha_ni ()) then Alcotest.skip ();
          Alcotest.(check string)
            "active kernel" "sha-ni"
            (K.name K.active));
    ]

let sha512_tests =
  [
    Alcotest.test_case "abc" `Quick (fun () ->
        check_hex "sha512(abc)"
          ("ddaf35a193617abacc417349ae20413112e6fa4e89a97ea20a9eeee64b55d39a"
         ^ "2192992a274fc1a836ba3c23a3feebbd454d4423643ce80e2a9ac94fa54ca49f")
          (Crypto.Sha512.hex "abc"));
    Alcotest.test_case "empty" `Quick (fun () ->
        check_hex "sha512(\"\")"
          ("cf83e1357eefb8bdf1542850d66d8007d620e4050b5715dc83f4a921d36ce9ce"
         ^ "47d0d13c5d85f2b0ff8318d2877eec2f63b931bd47417a81a538327af927da3e")
          (Crypto.Sha512.hex ""));
    Alcotest.test_case "112-byte two-block message" `Quick (fun () ->
        check_hex "sha512(abcdef...)"
          ("8e959b75dae313da8cf4f72814fc143f8f7779c6eb9f7fa17299aeadb6889018"
         ^ "501d289e4900f7e4331b99dec4b5433ac7d329eeb6dd26545e96e55b874be909")
          (Crypto.Sha512.hex
             ("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmn"
            ^ "hijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu")));
  ]

let aes_tests =
  let key =
    String.init 16 (fun i -> Char.chr i) (* 000102...0f *)
  in
  let fips_plain =
    String.init 16 (fun i -> Char.chr ((i * 0x11) land 0xff))
    (* 00 11 22 ... ff *)
  in
  [
    Alcotest.test_case "FIPS-197 C.1 encrypt" `Quick (fun () ->
        let k = Crypto.Aes.expand_key key in
        let buf = Bytes.of_string fips_plain in
        Crypto.Aes.encrypt_block k buf 0;
        check_hex "ciphertext" "69c4e0d86a7b0430d8cdb78070b4c55a"
          (Crypto.Sha256.to_hex (Bytes.to_string buf)));
    Alcotest.test_case "FIPS-197 C.1 decrypt" `Quick (fun () ->
        let k = Crypto.Aes.expand_key key in
        let buf = Bytes.of_string fips_plain in
        Crypto.Aes.encrypt_block k buf 0;
        Crypto.Aes.decrypt_block k buf 0;
        Alcotest.(check string) "round trip" fips_plain (Bytes.to_string buf));
    Alcotest.test_case "CBC round trip" `Quick (fun () ->
        let iv = String.make 16 '\x42' in
        let msg = String.init 64 (fun i -> Char.chr ((i * 7) land 0xff)) in
        let ct = Crypto.Aes.cbc_encrypt ~key ~iv msg in
        Alcotest.(check bool) "ciphertext differs" true (ct <> msg);
        Alcotest.(check string)
          "decrypts" msg
          (Crypto.Aes.cbc_decrypt ~key ~iv ct));
    Alcotest.test_case "CBC chaining propagates" `Quick (fun () ->
        let iv = String.make 16 '\x00' in
        let msg = String.make 32 'A' in
        let ct = Crypto.Aes.cbc_encrypt ~key ~iv msg in
        Alcotest.(check bool)
          "identical plaintext blocks yield distinct ciphertext blocks" true
          (String.sub ct 0 16 <> String.sub ct 16 16));
    Alcotest.test_case "bad key length rejected" `Quick (fun () ->
        Alcotest.check_raises "short key"
          (Invalid_argument "Aes.expand_key: need 16 bytes") (fun () ->
            ignore (Crypto.Aes.expand_key "short")));
  ]

let norx_key = String.init 32 (fun i -> Char.chr ((i * 3) land 0xff))
let norx_nonce = String.init 32 (fun i -> Char.chr ((255 - i) land 0xff))

let norx_tests =
  [
    Alcotest.test_case "round trip (multi-block)" `Quick (fun () ->
        let msg = String.init 500 (fun i -> Char.chr (i land 0xff)) in
        let ct, tag =
          Crypto.Norx.encrypt ~key:norx_key ~nonce:norx_nonce ~header:"hdr"
            msg
        in
        match
          Crypto.Norx.decrypt ~key:norx_key ~nonce:norx_nonce ~header:"hdr"
            ~tag ct
        with
        | Some pt -> Alcotest.(check string) "plaintext" msg pt
        | None -> Alcotest.fail "tag should verify");
    Alcotest.test_case "tampered ciphertext rejected" `Quick (fun () ->
        let msg = "attack at dawn, bring the keys" in
        let ct, tag =
          Crypto.Norx.encrypt ~key:norx_key ~nonce:norx_nonce ~header:"" msg
        in
        let ct' = Bytes.of_string ct in
        Bytes.set ct' 3 (Char.chr (Char.code (Bytes.get ct' 3) lxor 1));
        Alcotest.(check bool)
          "rejected" true
          (Crypto.Norx.decrypt ~key:norx_key ~nonce:norx_nonce ~header:""
             ~tag (Bytes.to_string ct')
          = None));
    Alcotest.test_case "tampered header rejected" `Quick (fun () ->
        let ct, tag =
          Crypto.Norx.encrypt ~key:norx_key ~nonce:norx_nonce ~header:"h1"
            "payload"
        in
        Alcotest.(check bool)
          "rejected" true
          (Crypto.Norx.decrypt ~key:norx_key ~nonce:norx_nonce ~header:"h2"
             ~tag ct
          = None));
    Alcotest.test_case "empty payload authenticates header" `Quick (fun () ->
        let ct, tag =
          Crypto.Norx.encrypt ~key:norx_key ~nonce:norx_nonce
            ~header:"only-header" ""
        in
        Alcotest.(check string) "no ciphertext" "" ct;
        Alcotest.(check bool)
          "verifies" true
          (Crypto.Norx.decrypt ~key:norx_key ~nonce:norx_nonce
             ~header:"only-header" ~tag ct
          <> None));
    Alcotest.test_case "permute diffuses a single bit" `Quick (fun () ->
        (* All-zero is a fixed point of LRX permutations; a single set bit
           must diffuse into (nearly) every word. *)
        let s = Array.make 16 0L in
        s.(0) <- 1L;
        ignore (Crypto.Norx.permute s);
        let nonzero =
          Array.fold_left (fun n w -> if w <> 0L then n + 1 else n) 0 s
        in
        Alcotest.(check bool) "diffused" true (nonzero >= 14));
  ]

let norx_roundtrip_prop =
  QCheck.Test.make ~name:"norx round-trips arbitrary payloads" ~count:50
    QCheck.(string_of_size Gen.(0 -- 400))
    (fun msg ->
      let ct, tag =
        Crypto.Norx.encrypt ~key:norx_key ~nonce:norx_nonce ~header:"p" msg
      in
      Crypto.Norx.decrypt ~key:norx_key ~nonce:norx_nonce ~header:"p" ~tag ct
      = Some msg)

let aes_cbc_prop =
  QCheck.Test.make ~name:"aes-cbc round-trips block-aligned payloads"
    ~count:50
    QCheck.(pair (string_of_size Gen.(return 16)) small_nat)
    (fun (key16, nblocks) ->
      QCheck.assume (String.length key16 = 16);
      let nblocks = (nblocks mod 8) + 1 in
      let msg =
        String.init (16 * nblocks) (fun i -> Char.chr ((i * 13) land 0xff))
      in
      let iv = String.make 16 '\x55' in
      Crypto.Aes.cbc_decrypt ~key:key16 ~iv
        (Crypto.Aes.cbc_encrypt ~key:key16 ~iv msg)
      = msg)

let suite =
  [
    ("crypto.sha256", sha256_tests);
    ("crypto.sha256.kernels", kernel_tests);
    ("crypto.sha512", sha512_tests);
    ("crypto.aes", aes_tests);
    ("crypto.norx", norx_tests);
    ( "crypto.properties",
      List.map QCheck_alcotest.to_alcotest
        [ sha256_split_prop; sha256_slice_prop; norx_roundtrip_prop;
          aes_cbc_prop ]
    );
  ]
