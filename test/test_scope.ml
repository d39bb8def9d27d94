(* FlexScope: the Sim.Scope recorder (spans, lifecycle, flight
   recorder, JSON/trace export) and its datapath wiring — per-stage
   cycle attribution against the pipeline model's configured costs,
   Chrome trace_event schema validity, span-nesting invariants, and
   the fully-disabled configuration. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

module J = Sim.Json
module Scope = Sim.Scope
module H = Sim.Stats.Histogram
module Guard = Flextoe.Guard

(* --- Json ------------------------------------------------------------- *)

let test_json_roundtrip () =
  let v =
    J.Obj
      [
        ("a", J.Int 42);
        ("b", J.Float 1.5);
        ("c", J.String "x\"y\\z\n");
        ("d", J.List [ J.Null; J.Bool true; J.Bool false ]);
        ("e", J.Obj [ ("nested", J.Int (-7)) ]);
      ]
  in
  (match J.of_string (J.to_string v) with
  | Ok v' -> check_bool "roundtrip equal" true (v = v')
  | Error e -> Alcotest.failf "reparse failed: %s" e);
  (match J.of_string "{\"k\": 1} trailing" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "trailing garbage accepted");
  match J.of_string "[1, 2," with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "truncated document accepted"

(* --- Recorder units --------------------------------------------------- *)

let mk_scope ?mode ?max_events ?flight_capacity () =
  let engine = Sim.Engine.create () in
  (engine, Scope.create ?mode ?max_events ?flight_capacity engine)

let test_flight_ring_bounded () =
  let _, sc = mk_scope ~flight_capacity:4 () in
  for i = 1 to 10 do
    Scope.instant sc ~track:"t" ~name:(Printf.sprintf "ev%d" i) ~conn:3
      ~arg:i
  done;
  let entries = Scope.flight sc ~conn:3 in
  check_int "ring keeps capacity" 4 (List.length entries);
  check_int "total counts overwritten" 10 (Scope.flight_total sc ~conn:3);
  (* Oldest-first: the surviving entries are the last four, in order. *)
  Alcotest.(check (list int))
    "oldest first"
    [ 7; 8; 9; 10 ]
    (List.map (fun e -> e.Scope.fl_arg) entries);
  check_int "other conns empty" 0 (List.length (Scope.flight sc ~conn:0))

let test_flight_dump () =
  let _, sc = mk_scope ~flight_capacity:8 () in
  Scope.seg_begin sc ~track:"seg_rx" ~conn:1 ~id:7;
  Scope.instant sc ~track:"dma" ~name:"payload_rx_issue" ~conn:1 ~arg:7;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Scope.dump_flight sc ~conn:1 ~reason:"test" ppf;
  Format.pp_print_flush ppf ();
  let s = Buffer.contents buf in
  let contains needle =
    let n = String.length needle and l = String.length s in
    let rec go i = i + n <= l && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  check_bool "dump names conn and reason" true (contains "conn 1 (test)");
  check_bool "dump lists events" true (contains "payload_rx_issue");
  check_int "dump counted" 1 (Scope.flight_dumps sc)

let test_event_buffer_bounded () =
  let _, sc = mk_scope ~max_events:10 () in
  for i = 1 to 25 do
    Scope.instant sc ~track:"t" ~name:"e" ~conn:0 ~arg:i
  done;
  check_int "recorded capped" 10 (Scope.events_recorded sc);
  check_int "excess counted, not lost silently" 15 (Scope.dropped_events sc)

let test_seg_lifecycle_histogram () =
  let engine, sc = mk_scope () in
  Scope.seg_begin sc ~track:"seg_rx" ~conn:0 ~id:1;
  Sim.Engine.schedule engine (Sim.Time.us 3) (fun () ->
      Scope.seg_end sc ~track:"seg_rx" ~id:1;
      (* Unmatched end: ignored, no phantom sample. *)
      Scope.seg_end sc ~track:"seg_rx" ~id:99);
  Sim.Engine.run engine;
  match List.assoc_opt "lifecycle_ns/seg_rx" (Scope.histograms sc) with
  | None -> Alcotest.fail "lifecycle histogram missing"
  | Some h ->
      check_int "one sample" 1 (H.count h);
      check_int "elapsed ns recorded" 3000 (H.percentile h 50.)

let test_metrics_only_mode_buffers_nothing () =
  let _, sc = mk_scope ~mode:Scope.Metrics_only () in
  let sp = Scope.span_begin sc ~stage:"gro" ~conn:0 ~id:1 in
  Scope.span_end sc sp ~cycles:15;
  Scope.instant sc ~track:"t" ~name:"e" ~conn:0 ~arg:0;
  Scope.sample sc ~series:"s" ~value:1.0;
  check_int "no chrome events buffered" 0 (Scope.events_recorded sc);
  match List.assoc_opt "stage/gro" (Scope.histograms sc) with
  | Some h -> check_int "histograms still recorded" 1 (H.count h)
  | None -> Alcotest.fail "stage histogram missing in metrics-only mode"

let test_validate_trace_line () =
  let ok s =
    match J.of_string s with
    | Ok j -> Scope.validate_trace_line j
    | Error e -> Error e
  in
  check_bool "good X" true
    (ok
       {|{"name":"gro","ph":"X","pid":0,"tid":1,"ts":1.0,"dur":2.0,"args":{}}|}
    = Ok ());
  check_bool "good M" true
    (ok {|{"name":"thread_name","ph":"M","pid":0,"tid":1,"args":{}}|} = Ok ());
  check_bool "X without dur rejected" true
    (ok {|{"name":"gro","ph":"X","pid":0,"tid":1,"ts":1.0}|} <> Ok ());
  check_bool "async without id rejected" true
    (ok {|{"name":"s","ph":"b","pid":0,"tid":1,"ts":1.0,"cat":"s"}|} <> Ok ());
  check_bool "unknown phase rejected" true
    (ok {|{"name":"s","ph":"Q","pid":0,"tid":1,"ts":1.0}|} <> Ok ());
  check_bool "non-object rejected" true (ok {|[1,2]|} <> Ok ())

(* --- Datapath integration --------------------------------------------- *)

let ip_a = 0x0A000001
let ip_b = 0x0A000002

(* Echo workload with a profiled FlexTOE server; returns the server
   node after a bounded run. *)
let run_profiled ?(scope = Flextoe.Config.Scope_full) ?(ms = 8) () =
  let engine = Sim.Engine.create ~seed:7L () in
  let fabric = Netsim.Fabric.create engine () in
  let config = { Flextoe.Config.default with Flextoe.Config.scope } in
  let server = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let client = Flextoe.create_node engine ~fabric ~ip:ip_b () in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint server) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint client) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns:4 ~pipeline:4 ~req_bytes:256
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms ms) engine;
  (server, stats)

let within_pct name expected pct actual =
  let lo = expected *. (1. -. (pct /. 100.))
  and hi = expected *. (1. +. (pct /. 100.)) in
  if actual < lo || actual > hi then
    Alcotest.failf "%s: mean %.2f outside %.0f%% of model cost %.0f" name
      actual pct expected

let test_stage_means_match_model () =
  let server, stats = run_profiled () in
  check_bool "workload made progress" true (Host.Rpc.Stats.ops stats > 100);
  let sc =
    match Flextoe.scope server with
    | Some sc -> sc
    | None -> Alcotest.fail "scope missing on profiled node"
  in
  let c = Flextoe.Config.default.Flextoe.Config.costs in
  let mean name =
    match List.assoc_opt ("stage/" ^ name) (Scope.histograms sc) with
    | Some h when H.count h > 0 -> H.mean h
    | _ -> Alcotest.failf "stage/%s histogram empty" name
  in
  (* Constant-cost stages: attribution must equal the model's charged
     cycles (no tracepoints enabled, so no extras). *)
  within_pct "gro" (float_of_int c.Flextoe.Config.sequencer) 20. (mean "gro");
  within_pct "sched"
    (float_of_int c.Flextoe.Config.scheduler_pick)
    20. (mean "sched");
  within_pct "dma" (float_of_int c.Flextoe.Config.dma_desc) 20. (mean "dma");
  within_pct "ctx" (float_of_int c.Flextoe.Config.ctx_desc) 20. (mean "ctx");
  (* Mixed-cost stages: the mean must stay inside the cost envelope of
     the operations blended into them. *)
  let proto = mean "protocol" in
  check_bool "protocol mean within [rx_ack, rx]" true
    (proto >= float_of_int c.Flextoe.Config.protocol_hc
    && proto <= float_of_int c.Flextoe.Config.protocol_rx);
  let post = mean "postproc" in
  check_bool "postproc mean within [tx, rx]" true
    (post >= float_of_int c.Flextoe.Config.postproc_tx
    && post <= float_of_int c.Flextoe.Config.postproc_rx);
  (* Lifecycle histograms exist for both directions. *)
  List.iter
    (fun track ->
      match
        List.assoc_opt ("lifecycle_ns/" ^ track) (Scope.histograms sc)
      with
      | Some h -> check_bool (track ^ " lifecycles seen") true (H.count h > 0)
      | None -> Alcotest.failf "lifecycle_ns/%s missing" track)
    [ "seg_rx"; "seg_tx" ];
  (* The utilization sampler ran and produced series. *)
  (match Flextoe.flexscope server with
  | Some s -> check_bool "sampler ticked" true (Flextoe.Flexscope.ticks s > 0)
  | None -> Alcotest.fail "sampler missing on profiled node");
  match J.member "series" (Scope.metrics sc) with
  | Some (J.Obj series) ->
      check_bool "utilization series exported" true
        (List.exists
           (fun (k, _) -> String.length k > 5 && String.sub k 0 5 = "util/")
           series)
  | _ -> Alcotest.fail "metrics snapshot has no series object"

let test_trace_schema_and_nesting () =
  let server, _ = run_profiled ~ms:4 () in
  let dp = Flextoe.datapath server in
  let path = Filename.temp_file "flexscope" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Flextoe.Flexscope.write_profile ~trace:path dp;
      let ic = open_in path in
      let lines = ref [] in
      (try
         while true do
           lines := input_line ic :: !lines
         done
       with End_of_file -> close_in ic);
      let lines = List.rev !lines in
      check_bool "trace non-empty" true (List.length lines > 100);
      (* Every line parses and satisfies the trace_event schema. *)
      let parsed =
        List.map
          (fun line ->
            match J.of_string line with
            | Error e -> Alcotest.failf "unparsable line: %s" e
            | Ok j -> (
                match Scope.validate_trace_line j with
                | Ok () -> j
                | Error e -> Alcotest.failf "invalid line (%s): %s" e line))
          lines
      in
      (* Span-nesting invariant: for each RX segment id, the summed
         durations of its per-stage "X" spans fit inside the segment's
         async begin/end window. *)
      let str k j = Option.bind (J.member k j) J.to_string_opt in
      let num k j = Option.bind (J.member k j) J.to_float_opt in
      let arg_id j =
        Option.bind (J.member "args" j) (fun a ->
            Option.bind (J.member "id" a) J.to_int_opt)
      in
      let stage_sum = Hashtbl.create 256 in
      let windows = Hashtbl.create 256 in
      List.iter
        (fun j ->
          match str "ph" j with
          | Some "X" -> (
              match (arg_id j, num "dur" j) with
              | Some id, Some dur when id >= 0 ->
                  let cur =
                    Option.value ~default:0.
                      (Hashtbl.find_opt stage_sum id)
                  in
                  Hashtbl.replace stage_sum id (cur +. dur)
              | _ -> ())
          | Some (("b" | "e") as ph) -> (
              match (str "cat" j, str "id" j, num "ts" j) with
              | Some "seg_rx", Some ids, Some ts ->
                  let id = int_of_string ids in
                  let b, e =
                    Option.value ~default:(None, None)
                      (Hashtbl.find_opt windows id)
                  in
                  if ph = "b" then Hashtbl.replace windows id (Some ts, e)
                  else Hashtbl.replace windows id (b, Some ts)
              | _ -> ())
          | _ -> ())
        parsed;
      let checked = ref 0 in
      Hashtbl.iter
        (fun id w ->
          match w with
          | Some b, Some e -> (
              check_bool
                (Printf.sprintf "seg %d window ordered" id)
                true (e >= b);
              match Hashtbl.find_opt stage_sum id with
              | Some sum ->
                  incr checked;
                  (* Timestamps are microsecond floats; allow rounding
                     slack. *)
                  if sum > e -. b +. 0.005 then
                    Alcotest.failf
                      "seg %d: stage spans sum %.3fus exceed window %.3fus"
                      id sum (e -. b)
              | None -> ())
          | _ -> ())
        windows;
      check_bool "nesting checked on real segments" true (!checked > 50))

let test_metrics_snapshot_shape () =
  let server, _ = run_profiled ~scope:Flextoe.Config.Scope_metrics ~ms:4 () in
  let sc =
    match Flextoe.scope server with
    | Some sc -> sc
    | None -> Alcotest.fail "scope missing"
  in
  check_int "metrics-only buffers no chrome events" 0
    (Scope.events_recorded sc);
  let m = Scope.metrics sc in
  (* Snapshot survives its own print/parse cycle. *)
  let m =
    match J.of_string (J.to_string m) with
    | Ok j -> j
    | Error e -> Alcotest.failf "snapshot unparsable: %s" e
  in
  (match Option.bind (J.member "mode" m) J.to_string_opt with
  | Some "metrics" -> ()
  | other ->
      Alcotest.failf "mode = %s"
        (Option.value ~default:"<missing>" other));
  match J.member "histograms" m with
  | Some (J.Obj hists) ->
      let stage =
        List.filter
          (fun (k, _) -> String.length k > 6 && String.sub k 0 6 = "stage/")
          hists
      in
      check_bool "stage histograms present" true (List.length stage >= 5);
      List.iter
        (fun (k, h) ->
          match
            ( Option.bind (J.member "p50" h) J.to_int_opt,
              Option.bind (J.member "p99" h) J.to_int_opt )
          with
          | Some _, Some _ -> ()
          | _ -> Alcotest.failf "%s lacks p50/p99" k)
        stage
  | _ -> Alcotest.fail "snapshot has no histograms object"

(* The snapshot's counters are read from the layers that own them:
   each "guard/<name>" is FlexGuard's counter, each "nbi/*" and
   "preproc/*" the data-path counter it names. The profiled server
   runs guarded under an echo load, a short SYN flood and bit flips
   on its ingress, so the guard counts and frames fail checksums. *)
let test_snapshot_counters () =
  let engine = Sim.Engine.create ~seed:7L () in
  let fabric = Netsim.Fabric.create engine () in
  let config =
    {
      Flextoe.Config.default with
      Flextoe.Config.scope = Flextoe.Config.Scope_metrics;
      guard = Flextoe.Config.guard_default;
    }
  in
  let server = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let client = Flextoe.create_node engine ~fabric ~ip:ip_b () in
  let dp = Flextoe.datapath server in
  let faults =
    Netsim.Faults.create engine ~seed:3L
      [ Netsim.Faults.Corrupt { prob = 0.01; header_prob = 0.5 } ]
  in
  Netsim.Faults.attach_rx faults (Flextoe.Datapath.fabric_port dp);
  (* Every frame the NBI sends passes the capture tap. *)
  let tx_frames = ref 0 in
  Flextoe.Datapath.set_capture dp
    (Some (fun dir _ -> if dir = Flextoe.Datapath.Dir_tx then incr tx_frames));
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint server) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint client) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns:4 ~pipeline:4 ~req_bytes:256
       ~stats ());
  let flood =
    Netsim.Faults.Churn.syn_flood engine fabric ~src_ip:0x0A0000EE
      ~dst_ip:ip_a ~dst_port:7 ~rate_pps:1_000_000 ()
  in
  Sim.Engine.run ~until:(Sim.Time.ms 2) engine;
  Netsim.Faults.Churn.stop flood;
  Sim.Engine.run ~until:(Sim.Time.ms 3) engine;
  let sc = Option.get (Flextoe.scope server) in
  let g = Option.get (Flextoe.Datapath.guard dp) in
  let counters =
    match J.member "counters" (Scope.metrics sc) with
    | Some (J.Obj kvs) -> kvs
    | _ -> Alcotest.fail "snapshot has no counters object"
  in
  (* Absent keys read 0: the snapshot keeps only positive counters. *)
  let snap k =
    match List.assoc_opt k counters with
    | Some v -> Option.get (J.to_int_opt v)
    | None -> 0
  in
  let guard_key = String.starts_with ~prefix:"guard/" in
  (* A Guard counter exists once it has counted, so every one is in
     the snapshot, in the same order. *)
  Alcotest.(check (list (pair string int)))
    "guard/<name> = Guard.counters" (Guard.counters g)
    (List.filter_map
       (fun (k, _) ->
         if guard_key k then
           Some (String.sub k 6 (String.length k - 6), snap k)
         else None)
       counters);
  check_bool "the flood reached the guard" true (snap "guard/syn_rx" > 100);
  let {
    Flextoe.Datapath.rx_segments;
    tx_segments;
    tx_acks;
    rx_dropped_csum;
    rx_to_control;
    _;
  } =
    Flextoe.Datapath.stats dp
  in
  check_bool "frames failed their checksum" true (rx_dropped_csum > 0);
  let owned =
    [
      ("nbi/rx_frames", rx_segments);
      ("nbi/tx_frames", tx_segments);
      ("nbi/tx_acks", tx_acks);
      (* Every other frame the NBI sent came from the control plane. *)
      ("nbi/tx_ctl", !tx_frames - tx_segments - tx_acks);
      ("preproc/drop_csum", rx_dropped_csum);
      (* Pipelined, without XDP: every control forward leaves from
         pre-processing. *)
      ("preproc/to_control", rx_to_control);
    ]
  in
  List.iter (fun (k, n) -> check_int k n (snap k)) owned;
  List.iter
    (fun (k, _) ->
      if not (guard_key k || List.mem_assoc k owned) then
        Alcotest.failf "counter %s has no owner" k)
    counters

let test_disabled_has_no_scope () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let n = Flextoe.create_node engine ~fabric ~ip:ip_a () in
  check_bool "no scope by default" true (Flextoe.scope n = None);
  check_bool "no sampler by default" true (Flextoe.flexscope n = None)

(* A metrics-only stage span costs its span record and nothing else:
   the stage's histogram is found without building its key, and the
   flight recorder stores the span's fields in place. *)
let test_span_allocation () =
  let sc = Scope.create ~mode:Scope.Metrics_only (Sim.Engine.create ()) in
  let pair () =
    let sp = Scope.span_begin sc ~stage:"preproc" ~conn:3 ~id:(-1) in
    Scope.span_end sc sp ~cycles:100
  in
  for _ = 1 to 100 do
    pair ()
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    pair ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  (* A four-field record: one header word and four fields. *)
  if words > 5.1 then
    Alcotest.failf "%.2f minor words per span (bound 5.1)" words;
  check_int "recorded" (n + 100)
    (H.count (List.assoc "stage/preproc" (Scope.histograms sc)));
  check_int "flight total" (n + 100) (Scope.flight_total sc ~conn:3)

(* A metrics-only lifecycle pair costs its open-span entry (the
   table's bucket and the start/conn record) and nothing else: no
   tuple key per lookup, no [Some], and no histogram key per end. *)
let test_seg_allocation () =
  let sc = Scope.create ~mode:Scope.Metrics_only (Sim.Engine.create ()) in
  let pair id =
    Scope.seg_begin sc ~track:"seg_rx" ~conn:3 ~id;
    Scope.seg_end sc ~track:"seg_rx" ~id
  in
  for id = 1 to 100 do
    pair id
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for id = 1 to n do
    pair id
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  (* A hashtable bucket (header + key, data, next) and a two-field
     record. *)
  if words > 7.1 then
    Alcotest.failf "%.2f minor words per lifecycle pair (bound 7.1)" words;
  check_int "recorded" (n + 100)
    (H.count (List.assoc "lifecycle_ns/seg_rx" (Scope.histograms sc)));
  check_int "flight total" (2 * (n + 100)) (Scope.flight_total sc ~conn:3)

let suite =
  [
    Alcotest.test_case "json roundtrip" `Quick test_json_roundtrip;
    Alcotest.test_case "flight ring bounded" `Quick test_flight_ring_bounded;
    Alcotest.test_case "flight dump" `Quick test_flight_dump;
    Alcotest.test_case "event buffer bounded" `Quick
      test_event_buffer_bounded;
    Alcotest.test_case "seg lifecycle histogram" `Quick
      test_seg_lifecycle_histogram;
    Alcotest.test_case "metrics-only buffers nothing" `Quick
      test_metrics_only_mode_buffers_nothing;
    Alcotest.test_case "trace line validation" `Quick
      test_validate_trace_line;
    Alcotest.test_case "stage means match model costs" `Quick
      test_stage_means_match_model;
    Alcotest.test_case "trace schema + span nesting" `Quick
      test_trace_schema_and_nesting;
    Alcotest.test_case "metrics snapshot shape" `Quick
      test_metrics_snapshot_shape;
    Alcotest.test_case "snapshot counters read from their owners" `Quick
      test_snapshot_counters;
    Alcotest.test_case "disabled config has no scope" `Quick
      test_disabled_has_no_scope;
    Alcotest.test_case "metrics-only span allocation" `Quick
      test_span_allocation;
    Alcotest.test_case "metrics-only lifecycle allocation" `Quick
      test_seg_allocation;
  ]
