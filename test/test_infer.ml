(* FlexInfer tests: a seeded-violation corpus over synthetic sources
   (undeclared write, contract drift, wrap-unsafe compare, exempted
   compare), the golden pin — the inferred-vs-declared diff over the
   real datapath's builtin stages is empty — and the seeded-defect
   corpus: the three contract defects must be caught at source level,
   the footprint-identical defects must leave the diff empty, and every
   defect's FlexInfer and create-time verdicts must match its catalogue
   entry. *)

module E = Flextoe.Effects
module I = Analysis.Infer
module D = Flextoe.Datapath
module Defect = Flextoe.Defect
module PL = Flextoe.Pipeline
module Config = Flextoe.Config

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let write_tmp suffix contents =
  let path = Filename.temp_file "flexinfer_test" suffix in
  let oc = open_out path in
  output_string oc contents;
  close_out oc;
  path

let with_tmp suffix contents k =
  let path = write_tmp suffix contents in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ()) (fun () -> k path)

let contract stage ?(reads = []) ?(writes = []) () =
  { E.c_stage = stage; c_reads = reads; c_writes = writes;
    c_domain = E.Serial_none }

(* The repository root, from the test's working directory inside
   _build (the dune stanza declares the source trees as deps, so the
   real sources are present in the build sandbox). *)
let root () =
  match I.find_root () with
  | Some r -> r
  | None -> Alcotest.fail "repository root (lib/flextoe/datapath.ml) not found"

(* --- Seeded corpus: footprint inference ------------------------------ *)

(* A miniature stage whose body writes the protocol partition and a
   stats counter, and reads the connection table — against a contract
   that only admits the table read and the stats write. *)
let mini_dp =
  {|
let stage_a t =
  t.st_foo <- t.st_foo + 1;
  match Hashtbl.find_opt t.conns 0 with
  | Some cs -> cs.Conn_state.proto.Conn_state.snd_nxt <- 0
  | None -> ()

let stage_b t =
  ignore (Hashtbl.find_opt t.conns 1)
|}

let infer_mini declared =
  with_tmp ".ml" mini_dp (fun dp_file ->
      match
        I.infer_footprints ~dp_file
          ~stage_map:[ ("alpha", [ "stage_a" ]); ("beta", [ "stage_b" ]) ]
          ~excluded:[] ()
      with
      | Error e -> Alcotest.fail e
      | Ok (footprints, findings, locs) ->
          ( footprints,
            findings,
            I.diff_contracts ~declared ~footprints ~locs ~dp_file ))

let test_undeclared_write () =
  let declared =
    [
      contract "alpha" ~reads:[ E.Conn_db ] ~writes:[ E.Global_stats ] ();
      contract "beta" ~reads:[ E.Conn_db ] ();
    ]
  in
  let footprints, _, diff = infer_mini declared in
  let alpha = List.find (fun f -> f.I.fp_stage = "alpha") footprints in
  check_bool "alpha write footprint has conn.proto" true
    (E.mem E.Conn_proto alpha.I.fp_writes);
  check_bool "alpha read footprint has conn-db" true
    (E.mem E.Conn_db alpha.I.fp_reads);
  let errs = I.errors diff in
  check_int "exactly one error" 1 (List.length errs);
  let f = List.hd errs in
  check_bool "rule is undeclared-write" true (f.I.f_rule = "undeclared-write");
  check_bool "names the stage" true (f.I.f_stage = Some "alpha");
  check_bool "names the region" true (contains f.I.f_msg "conn.proto");
  check_bool "carries the source line" true (f.I.f_line > 0)

let test_contract_drift () =
  (* beta declares a payload read its body never performs. *)
  let declared =
    [
      contract "alpha" ~reads:[ E.Conn_db ]
        ~writes:[ E.Global_stats; E.Conn_proto ] ();
      contract "beta" ~reads:[ E.Conn_db; E.Rx_payload ] ();
    ]
  in
  let _, _, diff = infer_mini declared in
  check_int "no errors" 0 (List.length (I.errors diff));
  let drifts = List.filter (fun f -> f.I.f_rule = "contract-drift") diff in
  check_int "exactly one drift warning" 1 (List.length drifts);
  let f = List.hd drifts in
  check_bool "drift is a warning" true (f.I.f_severity = I.Sev_warning);
  check_bool "names beta" true (f.I.f_stage = Some "beta");
  check_bool "names rx-payload" true (contains f.I.f_msg "rx-payload")

(* Both over the synthetic source and over the real datapath, with the
   builtin pipeline table's gro row naming an entry it lacks. *)
let test_missing_entry () =
  let missing ~dp_file stage_map =
    match I.infer_footprints ~dp_file ~stage_map ~excluded:[] () with
    | Error e -> Alcotest.fail e
    | Ok (_, findings, _) ->
        List.filter (fun f -> f.I.f_rule = "missing-entry") findings
  in
  with_tmp ".ml" mini_dp (fun dp_file ->
      check_bool "missing entry reported" true
        (missing ~dp_file [ ("alpha", [ "stage_gone" ]) ] <> []));
  let table =
    List.map
      (fun s ->
        if PL.name s = PL.name PL.gro then
          { s with PL.s_entries = s.PL.s_entries @ [ "stage_gone" ] }
        else s)
      PL.builtin
  in
  let dp_file = Filename.concat (root ()) "lib/flextoe/datapath.ml" in
  match missing ~dp_file (PL.stage_map table) with
  | [ f ] ->
      check_bool "builtin table: the gro row's entry is missing" true
        (f.I.f_stage = Some (PL.name PL.gro) && contains f.I.f_msg "stage_gone")
  | fs -> Alcotest.failf "builtin table: %d missing entries" (List.length fs)

(* Sanitizer witnesses: the sa/San.access idiom carries the region as
   literal constructors; the walker must pick the access up from the
   call site even though the callee is opaque. *)
let test_witness () =
  let src =
    {|
let stage_w t =
  sa t ~stage:"w" ~flow:0 Effects.Desc_ring Effects.Write
|}
  in
  with_tmp ".ml" src (fun dp_file ->
      match
        I.infer_footprints ~dp_file
          ~stage_map:[ ("w", [ "stage_w" ]) ]
          ~excluded:[] ()
      with
      | Error e -> Alcotest.fail e
      | Ok (footprints, _, _) ->
          let fp = List.hd footprints in
          check_bool "witness write recorded" true
            (E.mem E.Desc_ring fp.I.fp_writes))

(* --- Seeded corpus: Seq32 lint --------------------------------------- *)

let seq32_src =
  {|
type t = { mutable nxt : Seq32.t; len : int }

let bad a b = a.nxt < b.nxt

let also_bad a b = compare a.nxt b.nxt

let fine a b =
  (* flexinfer: seq32-exempt *)
  a.nxt = b.nxt

let unrelated a b = a.len < b.len
|}

let test_seq32_lint () =
  with_tmp ".ml" seq32_src (fun path ->
      let findings, exempted = I.lint_seq32 ~files:[ path ] () in
      check_int "two wrap-unsafe comparisons" 2 (List.length findings);
      check_int "one exempted site" 1 exempted;
      List.iter
        (fun f ->
          check_bool "rule" true (f.I.f_rule = "seq32-structural-compare");
          check_bool "is an error" true (f.I.f_severity = I.Sev_error);
          check_bool "names Seq32" true (contains f.I.f_msg "Seq32"))
        findings;
      (* int-typed fields of the same record don't taint. *)
      check_bool "unrelated int compare untouched" true
        (not (List.exists (fun f -> f.I.f_line = 12) findings)))

(* Function-result seeding from an .mli signature. *)
let test_seq32_mli_seed () =
  let mli = write_tmp ".mli" "val head : int -> Tcp.Seq32.t\n" in
  let modname =
    String.capitalize_ascii
      Filename.(remove_extension (basename mli))
  in
  let src =
    Printf.sprintf "let f x y = %s.head x < %s.head y\n" modname modname
  in
  Fun.protect
    ~finally:(fun () -> try Sys.remove mli with Sys_error _ -> ())
    (fun () ->
      with_tmp ".ml" src (fun path ->
          let findings, _ =
            I.lint_seq32 ~seed_paths:[ mli ] ~files:[ path ] ()
          in
          check_int "result-type taint flags the compare" 1
            (List.length findings)))

(* --- Seeded corpus: poly-compare hygiene -------------------------------- *)

let poly_src =
  {|
let a x y = max x y

let b x = List.sort compare x

let c x y = Stdlib.min x y

let typed x y = Int.max x y

let shadowed ~max n = Int.min max n

let exempt x y =
  (* flexinfer: poly-compare-exempt *)
  compare x y

let min x y = if x < y then x else y

let redefined x y = min x y

module M = struct
  let d x y = max x y
  let max x y = Int.max x y
  let e x y = max x y
end

let f x y = max x y
|}

let test_poly_compare_lint () =
  with_tmp ".ml" poly_src (fun path ->
      let findings = I.lint_poly_compare ~files:[ path ] () in
      Alcotest.(check (list int))
        "bare max, compare as a value, Stdlib.min, in and after a module"
        [ 2; 4; 6; 21; 26 ]
        (List.map (fun f -> f.I.f_line) findings);
      List.iter
        (fun f ->
          check_bool "rule" true (f.I.f_rule = "poly-compare");
          check_bool "is a warning" true (f.I.f_severity = I.Sev_warning))
        findings;
      (* The Seq32 lint's own results are untouched by the new rule. *)
      let seq_findings, _ = I.lint_seq32 ~files:[ path ] () in
      check_int "no Seq32 findings" 0 (List.length seq_findings))

(* --- Seeded corpus: stdlib-queue ----------------------------------------- *)

let queue_src =
  {|
type edge = Queue | Credit

type 'a ring = { q : 'a Queue.t; fifo : 'a Sim.Fifo.t }

let make () = { q = Queue.create (); fifo = Sim.Fifo.create () }

let push r x = Stdlib.Queue.push x r.q; Sim.Fifo.push x r.fifo

module Q = Queue

let safe r = try Some (Q.pop r.q) with Queue.Empty -> None

let kind e = match e with Queue -> 0 | Credit -> 1

let wheel () = Sim.Event_queue.create ()

let drain r = let open Stdlib.Queue in clear r.q
|}

let queue_mli = {|
val make : unit -> int Queue.t
val wheel : unit -> int Sim.Event_queue.t
|}

let test_stdlib_queue_lint () =
  let lines findings = List.map (fun f -> f.I.f_line) findings in
  with_tmp ".ml" queue_src (fun path ->
      let findings = I.lint_stdlib_queue ~files:[ path ] () in
      Alcotest.(check (list int))
        "type, create, Stdlib.Queue.push, module alias, exception, open"
        [ 4; 6; 8; 10; 12; 18 ] (lines findings);
      List.iter
        (fun f ->
          check_bool "rule" true (f.I.f_rule = "stdlib-queue");
          check_bool "is an error" true (f.I.f_severity = I.Sev_error))
        findings;
      check_bool "names the replacement" true
        (List.for_all (fun f -> contains f.I.f_msg "Sim.Fifo") findings));
  with_tmp ".mli" queue_mli (fun path ->
      Alcotest.(check (list int))
        "signatures are linted too" [ 2 ]
        (lines (I.lint_stdlib_queue ~files:[ path ] ())))

(* --- Golden pin: the real tree --------------------------------------- *)

let test_golden_clean () =
  match I.infer_repo_diff ~root:(root ()) () with
  | Error e -> Alcotest.fail e
  | Ok (footprints, findings) ->
      check_int "all builtin stages inferred"
        (List.length (PL.contracts PL.builtin))
        (List.length footprints);
      List.iter
        (fun f -> Printf.printf "unexpected: %s\n" (I.finding_to_string f))
        findings;
      check_int "clean tree: empty inferred-vs-declared diff" 0
        (List.length findings)

let test_repo_seq32_clean () =
  match I.analyze_repo ~root:(root ()) () with
  | Error e -> Alcotest.fail e
  | Ok r ->
      check_int "no findings across lib/" 0
        (List.length r.I.rp_findings);
      check_bool "linted a realistic file count" true (r.I.rp_files_linted > 20)

(* --- Defect corpus at source level ----------------------------------- *)

let defect_diff defect =
  match
    I.infer_repo_diff ~pipeline:(Defect.pipeline defect) ~root:(root ()) ()
  with
  | Error e -> Alcotest.fail e
  | Ok (_, findings) -> findings

let test_catch_postproc_writes_conn () =
  let findings = defect_diff Defect.Postproc_writes_conn in
  check_bool "undeclared conn.proto write caught" true
    (List.exists
       (fun f ->
         f.I.f_rule = "undeclared-write"
         && f.I.f_stage = Some "postproc"
         && contains f.I.f_msg "conn.proto")
       findings)

let test_catch_preproc_reads_proto () =
  let findings = defect_diff Defect.Preproc_reads_proto in
  check_bool "undeclared conn.proto read caught" true
    (List.exists
       (fun f ->
         f.I.f_rule = "undeclared-read"
         && f.I.f_stage = Some "preproc"
         && contains f.I.f_msg "conn.proto")
       findings)

let test_catch_bad_contract () =
  let findings = defect_diff Defect.Bad_contract in
  check_bool "phantom declared write drifts" true
    (List.exists
       (fun f ->
         f.I.f_rule = "contract-drift"
         && f.I.f_stage = Some "postproc"
         && contains f.I.f_msg "conn.proto")
       findings)

(* The FlexInfer column of the corpus: every defect the catalogue
   calls footprint-identical (the ordering defects and mis_steer) leaves
   the source diff empty — a finding there would mean the analyzer reads
   ghosts — and every defect it says FlexInfer owns produces a finding,
   so a stale rationale fails too. *)
let test_ordering_defects_footprint_identical () =
  List.iter
    (fun d ->
      let name = Defect.name d in
      let findings = defect_diff d in
      match Defect.dynamic_only Defect.Flexinfer d with
      | Some _ ->
          check_int (name ^ ": footprint-identical") 0 (List.length findings)
      | None ->
          check_bool (name ^ ": FlexInfer verdict matches the catalogue") true
            (findings <> []))
    Defect.all

(* The rest of the corpus table: every catalogue name round-trips, and
   FlexProve at [Datapath.create] rejects exactly the defects the
   catalogue says it does. The FlexProve column is test_prove's
   "sabotage classification"; FlexSan's runtime verdict on every defect
   that builds is test_san's corpus. *)
let test_corpus_owners () =
  let rejected_at_create defect =
    let engine = Sim.Engine.create () in
    let fabric = Netsim.Fabric.create engine () in
    match
      D.create engine ~config:Config.default ~fabric ~mac:1 ~ip:0x0A000001
        ~pipeline:(Defect.pipeline defect) ()
    with
    | _ -> false
    | exception Flextoe.Prove.Graph_rejected _ -> true
  in
  List.iter
    (fun d ->
      let name = Defect.name d in
      check_bool (name ^ ": name round-trips") true
        (Defect.of_name name = Some d);
      check_bool (name ^ ": create-time verdict matches the catalogue")
        (Defect.rejected_at_create d)
        (rejected_at_create d))
    Defect.all

(* --- JSON surface ----------------------------------------------------- *)

let test_json_shape () =
  match I.analyze_repo ~root:(root ()) () with
  | Error e -> Alcotest.fail e
  | Ok r -> (
      let j = I.report_json r in
      match Sim.Json.of_string (Sim.Json.to_string j) with
      | Error e -> Alcotest.fail ("report JSON does not round-trip: " ^ e)
      | Ok j' -> (
          match Sim.Json.member "footprints" j' with
          | Some (Sim.Json.List fps) ->
              check_int "footprints serialized"
                (List.length r.I.rp_footprints)
                (List.length fps)
          | _ -> Alcotest.fail "footprints missing from report JSON"))

let suite =
  [
    Alcotest.test_case "seeded: undeclared write" `Quick test_undeclared_write;
    Alcotest.test_case "seeded: contract drift" `Quick test_contract_drift;
    Alcotest.test_case "seeded: missing entry" `Quick test_missing_entry;
    Alcotest.test_case "seeded: sanitizer witness" `Quick test_witness;
    Alcotest.test_case "seeded: Seq32 lint + exemption" `Quick test_seq32_lint;
    Alcotest.test_case "seeded: Seq32 .mli seeding" `Quick test_seq32_mli_seed;
    Alcotest.test_case "seeded: poly-compare lint + exemption" `Quick
      test_poly_compare_lint;
    Alcotest.test_case "seeded: stdlib-queue lint" `Quick
      test_stdlib_queue_lint;
    Alcotest.test_case "golden: builtin diff empty" `Quick test_golden_clean;
    Alcotest.test_case "golden: full repo lint clean" `Quick
      test_repo_seq32_clean;
    Alcotest.test_case "sabotage: postproc_writes_conn caught" `Quick
      test_catch_postproc_writes_conn;
    Alcotest.test_case "sabotage: preproc_reads_proto caught" `Quick
      test_catch_preproc_reads_proto;
    Alcotest.test_case "sabotage: bad_contract drift caught" `Quick
      test_catch_bad_contract;
    Alcotest.test_case "sabotage: ordering defects footprint-identical" `Quick
      test_ordering_defects_footprint_identical;
    Alcotest.test_case "corpus: verdicts match the catalogue" `Quick
      test_corpus_owners;
    Alcotest.test_case "json: report round-trips" `Quick test_json_shape;
  ]
