(* Tests for the statistics and cycle-ledger support library. *)

let stats_tests =
  [
    Alcotest.test_case "mean and stddev" `Quick (fun () ->
        let xs = [| 2.; 4.; 4.; 4.; 5.; 5.; 7.; 9. |] in
        Alcotest.(check (float 1e-9)) "mean" 5.0 (Metrics.Stats.mean xs);
        Alcotest.(check (float 1e-6))
          "stddev" 2.13809 (Metrics.Stats.stddev xs));
    Alcotest.test_case "percentiles interpolate" `Quick (fun () ->
        let xs = [| 1.; 2.; 3.; 4. |] in
        Alcotest.(check (float 1e-9))
          "p50" 2.5
          (Metrics.Stats.percentile 50. xs);
        Alcotest.(check (float 1e-9))
          "p0" 1.
          (Metrics.Stats.percentile 0. xs);
        Alcotest.(check (float 1e-9))
          "p100" 4.
          (Metrics.Stats.percentile 100. xs));
    Alcotest.test_case "pct_change matches paper convention" `Quick
      (fun () ->
        Alcotest.(check (float 1e-6))
          "+2.95%" 2.946768
          (Metrics.Stats.pct_change ~baseline:6.312 6.498));
    Alcotest.test_case "empty sample rejected" `Quick (fun () ->
        Alcotest.check_raises "mean" (Invalid_argument "Stats.mean: empty sample")
          (fun () -> ignore (Metrics.Stats.mean [||])));
    Alcotest.test_case "geomean" `Quick (fun () ->
        Alcotest.(check (float 1e-9))
          "geomean" 4.
          (Metrics.Stats.geomean [| 2.; 8. |]));
    Alcotest.test_case "interleaved pairs keep each arm's faster run" `Quick
      (fun () ->
        (* Run k takes [times.(k)]; the arms alternate ABBA, then BAAB. *)
        let times = [| 5.; 2.; 3.; 4.; 9.; 1.; 6.; 7. |] in
        let calls = ref [] in
        let run ~on =
          let k = List.length !calls in
          calls := on :: !calls;
          times.(k)
        in
        let off, on = Metrics.Stats.interleaved_pairs ~pairs:2 run in
        Alcotest.(check (list bool))
          "order"
          [ false; true; true; false; true; false; false; true ]
          (List.rev !calls);
        Alcotest.(check (array (float 0.))) "off" [| 4.; 1. |] off;
        Alcotest.(check (array (float 0.))) "on" [| 2.; 7. |] on);
  ]

let stats_props =
  [
    QCheck.Test.make ~name:"percentile is monotone in p" ~count:100
      QCheck.(
        pair
          (array_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.))
          (pair (float_bound_inclusive 100.) (float_bound_inclusive 100.)))
      (fun (xs, (p1, p2)) ->
        let lo = min p1 p2 and hi = max p1 p2 in
        Metrics.Stats.percentile lo xs <= Metrics.Stats.percentile hi xs +. 1e-9);
    QCheck.Test.make ~name:"mean lies within [min,max]" ~count:100
      QCheck.(array_of_size Gen.(1 -- 50) (float_bound_inclusive 1000.))
      (fun xs ->
        let m = Metrics.Stats.mean xs in
        let lo = Array.fold_left min xs.(0) xs in
        let hi = Array.fold_left max xs.(0) xs in
        m >= lo -. 1e-9 && m <= hi +. 1e-9);
  ]

let ledger_tests =
  [
    Alcotest.test_case "charge advances clock and category" `Quick (fun () ->
        let l = Metrics.Ledger.create () in
        Metrics.Ledger.charge l "trap" 100;
        Metrics.Ledger.charge l "pmp" 25;
        Metrics.Ledger.charge l "trap" 10;
        Alcotest.(check int) "clock" 135 (Metrics.Ledger.now l);
        Alcotest.(check int)
          "trap total" 110
          (Metrics.Ledger.category_total l "trap");
        Alcotest.(check int)
          "unknown" 0
          (Metrics.Ledger.category_total l "nothing"));
    Alcotest.test_case "mark/since measures deltas" `Quick (fun () ->
        let l = Metrics.Ledger.create () in
        Metrics.Ledger.advance l 50;
        let m = Metrics.Ledger.mark l in
        Metrics.Ledger.advance l 7;
        Alcotest.(check int) "delta" 7 (Metrics.Ledger.since l m));
    Alcotest.test_case "categories sorted by total" `Quick (fun () ->
        let l = Metrics.Ledger.create () in
        Metrics.Ledger.charge l "a" 1;
        Metrics.Ledger.charge l "b" 10;
        Alcotest.(check (list (pair string int)))
          "order"
          [ ("b", 10); ("a", 1) ]
          (Metrics.Ledger.categories l));
    Alcotest.test_case "negative charge rejected" `Quick (fun () ->
        let l = Metrics.Ledger.create () in
        Alcotest.check_raises "negative"
          (Invalid_argument "Ledger.charge: negative cycles") (fun () ->
            Metrics.Ledger.charge l "x" (-1)));
    Alcotest.test_case "reset zeroes everything" `Quick (fun () ->
        let l = Metrics.Ledger.create () in
        Metrics.Ledger.charge l "x" 5;
        Metrics.Ledger.reset l;
        Alcotest.(check int) "clock" 0 (Metrics.Ledger.now l);
        Alcotest.(check int) "cat" 0 (Metrics.Ledger.category_total l "x"));
  ]

let table_tests =
  [
    Alcotest.test_case "render aligns columns" `Quick (fun () ->
        let s =
          Metrics.Table.render ~header:[ "name"; "value" ]
            [ [ "aes"; "6.312" ]; [ "bigint"; "8.965" ] ]
        in
        let lines = String.split_on_char '\n' s in
        (match lines with
        | header :: _rule :: row1 :: _ ->
            Alcotest.(check int)
              "equal widths"
              (String.length header)
              (String.length row1)
        | _ -> Alcotest.fail "expected at least 3 lines");
        Alcotest.(check bool)
          "contains name" true
          (String.length s > 0 && String.sub s 0 4 = "name"));
    Alcotest.test_case "short rows padded" `Quick (fun () ->
        let s =
          Metrics.Table.render ~header:[ "a"; "b"; "c" ] [ [ "x" ] ]
        in
        Alcotest.(check bool) "renders" true (String.length s > 0));
    Alcotest.test_case "signed_pct format" `Quick (fun () ->
        Alcotest.(check string)
          "positive" "+2.59"
          (Metrics.Table.signed_pct 2.59);
        Alcotest.(check string)
          "negative" "-5.30"
          (Metrics.Table.signed_pct (-5.3)));
  ]

let suite =
  [
    ("metrics.stats", stats_tests);
    ("metrics.stats.properties", List.map QCheck_alcotest.to_alcotest stats_props);
    ("metrics.ledger", ledger_tests);
    ("metrics.table", table_tests);
  ]
