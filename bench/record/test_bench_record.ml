(* The bench record and its checker: JSON round trip, reading records
   written before the provenance fields, each relation at its exact
   bound, and the FAIL/SKIP rules every gate relies on. *)

module R = Bench_record

let record metrics =
  R.make ~experiment:"test" ~workload:"unit" ~workers:1 metrics

let tmp () =
  let path = Filename.temp_file "bench_record" ".json" in
  at_exit (fun () -> Sys.remove path);
  path

let gate ?(baseline = "") checks cur =
  R.gate ~baseline ~out:(tmp ()) (record cur) checks

let test_roundtrip () =
  let t =
    record
      (("mops.1", 2.4271) :: ("bytes_per_flow.16384", 108.)
      :: ("ratio", 1. /. 3.)
      :: R.series "retention" fst snd [ (0, 1.); (10, 0.9985) ])
  in
  let path = tmp () in
  R.write path t;
  Alcotest.(check bool) "same record" true (R.read path = Ok t);
  let t = { t with host = { t.host with rev = "0123abc"; profile = "dev" } } in
  R.write path t;
  Alcotest.(check bool) "same provenance" true (R.read path = Ok t)

let read_string s =
  let path = tmp () in
  Out_channel.with_open_text path (fun oc -> output_string oc s);
  R.read path

let test_old_format () =
  let old =
    {|{"experiment": "e", "workload": "w",
       "host": {"cores": 2, "workers": 1}, "metrics": {"a": 1.5}}|}
  in
  (match read_string old with
  | Ok t ->
      Alcotest.(check (pair string string))
        "rev, profile" ("unknown", "unknown") (t.host.rev, t.host.profile);
      Alcotest.(check (option (float 0.))) "metric" (Some 1.5) (R.get t "a")
  | Error e -> Alcotest.fail e);
  let bad =
    {|{"experiment": "e", "workload": "w",
       "host": {"cores": 2, "workers": 1, "rev": 7}, "metrics": {}}|}
  in
  Alcotest.(check bool) "ill-typed rev" true (Result.is_error (read_string bad));
  (* Every checked-in record, baselines included, still reads. *)
  let files =
    Sys.readdir ".." |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f && Filename.check_suffix f ".json")
  in
  Alcotest.(check bool) "checked-in records found" true (files <> []);
  List.iter
    (fun f ->
      match R.read (Filename.concat ".." f) with
      | Ok _ -> ()
      | Error e -> Alcotest.failf "%s: %s" f e)
    files

let test_provenance () =
  let h = (record []).host in
  Alcotest.(check bool)
    ("profile " ^ h.profile) true
    (h.profile <> "" && h.profile <> "unknown");
  let hex c = (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') in
  let commit =
    match String.split_on_char '-' h.rev with
    | [ c ] | [ c; "dirty" ] -> c
    | _ -> ""
  in
  Alcotest.(check bool)
    ("rev " ^ h.rev) true
    (h.rev = "unknown" || (String.length commit >= 4 && String.for_all hex commit))

let test_bounds () =
  let cases =
    [
      ("ge at bound", R.Ge 0.95, 0.95, 1.0, true);
      ("ge past bound", R.Ge 0.95, Float.pred 0.95, 1.0, false);
      ("gt at bound", R.Gt, 1.0, 1.0, false);
      ("gt past bound", R.Gt, Float.succ 1.0, 1.0, true);
      ("le at bound", R.Le, 128., 128., true);
      ("le past bound", R.Le, Float.succ 128., 128., false);
      ("eq", R.Eq, 0., 0., true);
      ("eq off", R.Eq, Float.succ 0., 0., false);
      ("nan", R.Ge 1., Float.nan, 0., false);
    ]
  in
  List.iter
    (fun (name, rel, a, b, want) ->
      Alcotest.(check bool)
        name want
        (gate [ R.check name (R.Cur "a") rel (R.Num b) ] [ ("a", a) ]))
    cases

let test_fail_rules () =
  let base_check = R.check "vs baseline" (R.Cur "a") (R.Ge 0.95) (R.Base "a") in
  let good = tmp () and bad = tmp () in
  R.write good (record [ ("a", 1.) ]);
  Out_channel.with_open_text bad (fun oc -> output_string oc "{\"a\": ");
  Alcotest.(check bool) "baseline holds" true
    (gate ~baseline:good [ base_check ] [ ("a", 1.) ]);
  Alcotest.(check bool) "missing current key" false
    (gate ~baseline:good [ base_check ] [ ("b", 1.) ]);
  Alcotest.(check bool) "missing baseline key" false
    (gate ~baseline:good
       [ R.check "c" (R.Cur "a") (R.Ge 1.) (R.Base "c") ]
       [ ("a", 1.) ]);
  Alcotest.(check bool) "missing file" false
    (gate ~baseline:(good ^ ".absent") [ base_check ] [ ("a", 1.) ]);
  Alcotest.(check bool) "unparseable baseline" false
    (gate ~baseline:bad [ base_check ] [ ("a", 1.) ])

let test_skip () =
  let pass = R.check "pass" (R.Cur "a") R.Eq (R.Num 1.) in
  let fail = R.check "fail" (R.Cur "a") R.Eq (R.Num 2.) in
  let skip = R.skip "skipped" "not measured" in
  let a = [ ("a", 1.) ] in
  Alcotest.(check bool) "skip alone" true (gate [ skip ] a);
  Alcotest.(check bool) "skip and pass" true (gate [ skip; pass ] a);
  Alcotest.(check bool) "skip and fail" false (gate [ skip; fail ] a)

(* The par gate's bound follows the LPs' work: a run is no shorter
   than its largest LP, so unequal LPs lower it below the worker
   count, which still bounds it. *)
let test_par_threshold () =
  let close = Alcotest.(check (float 0.005)) in
  let unequal = [ 35.; 25.; 20.; 20. ] and equal = [ 1.; 1.; 1.; 1. ] in
  close "35/25/20/20 reach" 2.857 (R.lp_reach unequal);
  close "35/25/20/20 at 4 workers" 2.143 (R.par_threshold ~workers:4 ~work:unequal);
  close "four equal LPs" 3.0 (R.par_threshold ~workers:4 ~work:equal);
  close "2 workers" 1.5 (R.par_threshold ~workers:2 ~work:unequal);
  close "2 workers, equal LPs" 1.5 (R.par_threshold ~workers:2 ~work:equal);
  close "no work" 0.75 (R.par_threshold ~workers:4 ~work:[])

let () =
  Alcotest.run "bench_record"
    [
      ( "record",
        [
          Alcotest.test_case "json round trip" `Quick test_roundtrip;
          Alcotest.test_case "relations at their bounds" `Quick test_bounds;
          Alcotest.test_case "missing key, file or parse is FAIL" `Quick
            test_fail_rules;
          Alcotest.test_case "SKIP keeps the exit code" `Quick test_skip;
          Alcotest.test_case "records without rev and profile read" `Quick
            test_old_format;
          Alcotest.test_case "rev and profile filled" `Quick test_provenance;
          Alcotest.test_case "par threshold follows the LPs' work" `Quick
            test_par_threshold;
        ] );
    ]
