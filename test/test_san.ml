(* FlexSan tests: the static contract check (FlexProve's graph passes
   over contract sets, as create runs them) and a mis-declared contract
   refused at create, the
   dynamic happens-before sanitizer's core machinery (synthetic
   histories), a clean-pipeline gate, and the seeded-race corpus —
   every deliberately-broken datapath variant must be flagged with a
   diagnostic naming the conflicting accesses. *)

module E = Flextoe.Effects
module San = Flextoe.San
module D = Flextoe.Datapath
module Defect = Flextoe.Defect
module PL = Flextoe.Pipeline
module G = Flextoe.Graph_ir
module P = Flextoe.Prove

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip_a = 0x0A000001
let ip_b = 0x0A000002

let san_config =
  { Flextoe.Config.default with Flextoe.Config.san = true }

(* --- Static contract check ------------------------------------------ *)

let mk_contract stage ?(reads = []) ?(writes = []) domain =
  { E.c_stage = stage; c_reads = reads; c_writes = writes;
    c_domain = domain }

(* The graph of a bare contract set: one 2-slot node per stage, and
   each named serialization domain realized by an ordered edge from its
   first member to every other (a self-edge for a lone member). *)
let contracts_graph cs =
  let nodes =
    List.map
      (fun c ->
        { G.n_name = c.E.c_stage; n_contract = c; n_slots = 2;
          n_serialized_writes = true })
      cs
  in
  let named c =
    match c.E.c_domain with
    | E.Serial_queue l | E.Serial_flow_group l -> Some l
    | E.Serial_none | E.Serial_conn -> None
  in
  let edges =
    List.concat_map
      (fun l ->
        let members =
          List.filter_map
            (fun c -> if named c = Some l then Some c.E.c_stage else None)
            cs
        in
        let first = List.hd members in
        let dsts = match List.tl members with [] -> [ first ] | t -> t in
        List.map
          (fun dst ->
            { G.e_src = first; e_dst = dst; e_label = l;
              e_kind = G.Dataflow { df_ordered = true }; e_drain = None })
          dsts)
      (List.sort_uniq compare (List.filter_map named cs))
  in
  { G.g_name = "contracts"; g_nodes = nodes; g_edges = edges }

let check_contracts cs = P.check_graph (contracts_graph cs)

let findings_text fs = String.concat "; " (List.map P.finding_to_string fs)

let test_builtin_contracts_sound () =
  (* The builtin stage set as declared, wired as create wires it. *)
  let pipeline = PL.declared PL.builtin in
  check_int "every builtin stage declares a contract"
    (List.length PL.builtin)
    (List.length (PL.contracts pipeline));
  match
    P.check_graph (G.builtin ~pipeline ~config:Flextoe.Config.default ())
  with
  | Ok _ -> ()
  | Error fs -> Alcotest.failf "builtin stage set rejected: %s" (findings_text fs)

let test_static_conflicts () =
  (* Two unserialized stages writing the protocol partition. *)
  let bad =
    [
      mk_contract "a" ~writes:[ E.Conn_proto ] E.Serial_none;
      mk_contract "b" ~writes:[ E.Conn_proto ] E.Serial_none;
    ]
  in
  (match check_contracts bad with
  | Ok _ -> Alcotest.fail "W/W overlap not detected"
  | Error fs ->
      let conflict s1 s2 =
        E.conflict_to_string
          { E.k_stage1 = s1; k_kind1 = E.Write; k_stage2 = s2;
            k_kind2 = E.Write; k_obj = E.Conn_proto }
      in
      check_bool "conflict names both stages and the region" true
        (List.exists
           (fun f ->
             f.P.f_pass = "interference"
             && List.mem f.P.f_detail [ conflict "a" "b"; conflict "b" "a" ])
           fs));
  (* Write/read overlap. *)
  let wr =
    [
      mk_contract "w" ~writes:[ E.Reasm ] E.Serial_none;
      mk_contract "r" ~reads:[ E.Reasm ] E.Serial_none;
    ]
  in
  (match check_contracts wr with
  | Ok _ -> Alcotest.fail "W/R overlap not detected"
  | Error _ -> ());
  (* A replicated (Serial_none) stage races its own replicas. *)
  match
    check_contracts [ mk_contract "solo" ~writes:[ E.Conn_proto ] E.Serial_none ]
  with
  | Ok _ -> Alcotest.fail "self-race of a replicated stage not detected"
  | Error _ -> ()

let test_static_serialization_admits () =
  (* The same overlaps are fine under a shared serialization domain. *)
  let ok_sets =
    [
      [
        mk_contract "a" ~writes:[ E.Conn_proto ] E.Serial_conn;
        mk_contract "b" ~reads:[ E.Conn_proto ] ~writes:[ E.Conn_proto ]
          E.Serial_conn;
      ];
      [
        mk_contract "a" ~writes:[ E.Reasm ] (E.Serial_queue "q");
        mk_contract "b" ~writes:[ E.Reasm ] (E.Serial_queue "q");
      ];
      (* Atomic regions never conflict statically. *)
      [
        mk_contract "a" ~writes:[ E.Global_stats ] E.Serial_none;
        mk_contract "b" ~writes:[ E.Global_stats ] E.Serial_none;
      ];
      (* Address-partitioned regions are deferred to the dynamic layer. *)
      [
        mk_contract "a" ~writes:[ E.Rx_payload ] E.Serial_none;
        mk_contract "b" ~writes:[ E.Rx_payload ] E.Serial_none;
      ];
    ]
  in
  List.iter
    (fun set ->
      match check_contracts set with
      | Ok _ -> ()
      | Error fs -> Alcotest.failf "spurious static conflict: %s" (findings_text fs))
    ok_sets

(* --- Create-time check ---------------------------------------------- *)

let test_bad_contract_fails_fast () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  match
    Flextoe.create_node engine ~fabric ~config:san_config
      ~pipeline:(Defect.pipeline Defect.Bad_contract) ~ip:ip_a ()
  with
  | _ -> Alcotest.fail "bad contract accepted at create"
  | exception Flextoe.Prove.Graph_rejected fs ->
      let conflict s1 s2 =
        E.conflict_to_string
          { E.k_stage1 = s1; k_kind1 = E.Write; k_stage2 = s2;
            k_kind2 = E.Write; k_obj = E.Conn_proto }
      in
      check_bool "diagnostic names postproc x protocol on conn.proto" true
        (List.exists
           (fun f ->
             List.mem f.Flextoe.Prove.f_detail
               [ conflict "protocol" "postproc";
                 conflict "postproc" "protocol" ])
           fs)

(* --- Synthetic histories -------------------------------------------- *)

let mk_san ?(contracts = []) () =
  let engine = Sim.Engine.create () in
  let contracts =
    if contracts = [] then
      [
        mk_contract "s1" ~reads:[ E.Conn_proto; E.Reasm ]
          ~writes:[ E.Conn_proto; E.Reasm ] E.Serial_none;
        mk_contract "s2" ~reads:[ E.Conn_proto; E.Rx_payload ]
          ~writes:[ E.Conn_proto; E.Rx_payload ] E.Serial_none;
      ]
    else contracts
  in
  San.create ~engine ~contracts

let has_race s =
  List.exists (function San.Race _ -> true | _ -> false) (San.reports s)

let has_atomicity s =
  List.exists (function San.Atomicity _ -> true | _ -> false)
    (San.reports s)

let has_breach s =
  List.exists (function San.Contract_breach _ -> true | _ -> false)
    (San.reports s)

let test_unordered_writes_race () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Write);
  San.run_as s ~thread:"t2" (fun () ->
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Conn_proto San.Write);
  check_bool "unordered W/W flagged" true (has_race s);
  (* The diagnostic names both (stage, region) accesses. *)
  match San.reports s with
  | San.Race (a1, a2) :: _ ->
      check_bool "both stages named" true
        (a1.San.a_stage = "s1" && a2.San.a_stage = "s2");
      check_bool "region named" true
        (a1.San.a_obj = E.Conn_proto && a2.San.a_obj = E.Conn_proto)
  | _ -> Alcotest.fail "expected a race report first"

let test_channel_edge_orders () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Write;
      San.chan_send s "ch");
  San.run_as s ~thread:"t2" (fun () ->
      San.chan_recv s "ch";
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Conn_proto San.Write);
  check_int "channel-ordered writes are clean" 0 (San.report_count s)

let test_token_edge_orders () =
  let s = mk_san () in
  let tok = ref 0 in
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:3 ~obj:E.Conn_proto San.Write;
      tok := San.token_send s);
  San.run_as s ~thread:"t2" ~join:!tok (fun () ->
      San.access s ~stage:"s2" ~flow:3 ~obj:E.Conn_proto San.Write);
  check_int "token-ordered writes are clean" 0 (San.report_count s)

let test_same_thread_ordered () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Write;
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Conn_proto San.Write);
  check_int "program order is happens-before" 0 (San.report_count s)

let test_reads_dont_race () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Read);
  San.run_as s ~thread:"t2" (fun () ->
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Conn_proto San.Read);
  check_int "R/R is not a conflict" 0 (San.report_count s)

let test_flows_isolated () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:1 ~obj:E.Conn_proto San.Write);
  San.run_as s ~thread:"t2" (fun () ->
      San.access s ~stage:"s2" ~flow:2 ~obj:E.Conn_proto San.Write);
  check_int "different flows never conflict" 0 (San.report_count s)

let test_payload_intervals () =
  let s = mk_san () in
  (* Disjoint byte ranges: clean even across threads. *)
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Rx_payload ~range:(0, 100)
        San.Write);
  San.run_as s ~thread:"t2" (fun () ->
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Rx_payload ~range:(100, 100)
        San.Write);
  check_int "disjoint ranges are clean" 0 (San.report_count s);
  (* Overlapping ranges race. *)
  San.run_as s ~thread:"t3" (fun () ->
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Rx_payload ~range:(50, 100)
        San.Read);
  check_bool "overlapping range flagged" true (has_race s)

let test_atomicity_violation () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      San.span_begin s ~stage:"s1" ~flow:0;
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Read);
  San.run_as s ~thread:"t2" (fun () ->
      San.access s ~stage:"s2" ~flow:0 ~obj:E.Conn_proto San.Write);
  San.run_as s ~thread:"t1" (fun () ->
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Write;
      San.span_end s ~stage:"s1" ~flow:0);
  check_bool "mid-span intruding write flagged" true (has_atomicity s)

let test_span_clean_when_serialized () =
  let s = mk_san () in
  (* Two spans on the same flow, properly ordered by a channel: the
     second sees the first's writes but no mid-span intrusion. *)
  San.run_as s ~thread:"t1" (fun () ->
      San.span_begin s ~stage:"s1" ~flow:0;
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Read;
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Write;
      San.span_end s ~stage:"s1" ~flow:0;
      San.chan_send s "lock");
  San.run_as s ~thread:"t2" (fun () ->
      San.chan_recv s "lock";
      San.span_begin s ~stage:"s1" ~flow:0;
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Read;
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Conn_proto San.Write;
      San.span_end s ~stage:"s1" ~flow:0);
  check_int "serialized spans are clean" 0 (San.report_count s)

let test_conformance_breach () =
  let s = mk_san () in
  San.run_as s ~thread:"t1" (fun () ->
      (* s1 never declared Rx_payload. *)
      San.access s ~stage:"s1" ~flow:0 ~obj:E.Rx_payload ~range:(0, 10)
        San.Write);
  check_bool "undeclared access flagged" true (has_breach s)

(* A delivery that overtakes an earlier, still-pending payload write,
   as the data path's accesses record it: segment B's payload lands
   and its notification reaches the host while segment A's DMA, for
   the bytes just before B's, is still in flight. The host reads from
   the connection's notified stream position, which is A's range, so
   A's late write races that read. Checking the notifying segment's
   own placement (B's range) instead would stay silent. *)
let test_overtaking_delivery () =
  let contracts =
    [
      mk_contract "dma" ~writes:[ E.Rx_payload ] E.Serial_none;
      mk_contract "ctx" ~reads:[ E.Rx_payload ] E.Serial_none;
    ]
  in
  let s = mk_san ~contracts () in
  let landed = ref 0 in
  San.run_as s ~thread:"dmaq0" (fun () ->
      San.access s ~stage:"dma" ~flow:0 ~obj:E.Rx_payload ~range:(64, 64)
        San.Write;
      landed := San.token_send s);
  San.run_as s ~thread:"hostctx0" ~join:!landed (fun () ->
      San.access s ~stage:"ctx" ~flow:0 ~obj:E.Rx_payload ~range:(0, 64)
        San.Read);
  check_int "the read itself conflicts with nothing yet" 0
    (San.report_count s);
  San.run_as s ~thread:"dmaq0" (fun () ->
      San.access s ~stage:"dma" ~flow:0 ~obj:E.Rx_payload ~range:(0, 64)
        San.Write);
  check_bool "the late payload write races the host's read" true
    (has_race s)

(* --- Healthy pipeline: zero reports --------------------------------- *)

let echo_pair ?(config = san_config) ?defect ~conns ~pipeline ~ms () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let node ip =
    Flextoe.create_node engine ~fabric ~config
      ?pipeline:(Option.map Defect.pipeline defect) ~ip ()
  in
  let a = node ip_a in
  let b = node ip_b in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns ~pipeline ~req_bytes:256
       ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms ms) engine;
  (stats, a, b)

let node_san n = D.san (Flextoe.datapath n)

let all_reports nodes =
  List.concat_map
    (fun n ->
      match node_san n with Some s -> San.reports s | None -> [])
    nodes

let total_report_count nodes =
  List.fold_left
    (fun acc n ->
      match node_san n with
      | Some s -> acc + San.report_count s
      | None -> acc)
    0 nodes

let test_healthy_pipeline_clean () =
  let stats, a, b = echo_pair ~conns:4 ~pipeline:4 ~ms:20 () in
  check_bool "workload ran" true (Host.Rpc.Stats.ops stats > 100);
  let sa = Option.get (node_san a) and sb = Option.get (node_san b) in
  check_bool "sanitizer saw traffic" true (San.accesses sa > 1000);
  check_bool "many distinct threads" true (San.threads sa > 8);
  (match all_reports [ a; b ] with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "healthy pipeline reported: %s"
        (San.report_to_string r));
  check_int "no reports on either node" 0
    (San.report_count sa + San.report_count sb)

(* Table 2's tcpdump load, sanitized on the server: some of a
   connection's payload DMAs complete out of protocol order, yet every
   delivery is of bytes that have landed, so the run is clean. *)
let test_capture_load_clean () =
  let engine = Sim.Engine.create ~seed:42L () in
  let server, stats =
    Golden_worlds.setup_capture_load ~config:san_config ~engine ()
  in
  Sim.Engine.run ~until:(Sim.Time.ms 1) engine;
  check_bool "workload ran" true (Host.Rpc.Stats.ops stats > 1000);
  match all_reports [ server ] with
  | [] -> ()
  | r :: _ ->
      Alcotest.failf "capture load reported: %s" (San.report_to_string r)

let test_rtc_mode_no_san () =
  let config =
    { san_config with Flextoe.Config.parallelism = Flextoe.Config.t3_baseline }
  in
  let _, a, _ = echo_pair ~config ~conns:1 ~pipeline:2 ~ms:5 () in
  check_bool "run-to-completion mode leaves the sanitizer off" true
    (node_san a = None)

let test_san_off_by_default () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let a =
    Flextoe.create_node engine ~fabric
      ~config:{ san_config with Flextoe.Config.san = false }
      ~ip:ip_a ()
  in
  check_bool "san=false means no sanitizer" true (node_san a = None)

(* --- Seeded-race corpus --------------------------------------------- *)

(* Objects a defect's diagnostics must mention, so reports point at
   the defect and not just "something raced". *)
let expected_objs = function
  | Defect.No_lock | Early_release -> [ E.Conn_proto; E.Reasm ]
  | Notify_before_payload | Skip_notify_dma -> [ E.Rx_payload ]
  | Postproc_writes_conn | Preproc_reads_proto -> [ E.Conn_proto ]
  (* The steering self-check surfaces a mis-steer as an access from
     the undeclared "shard-steer" pseudo-stage on the conn partition. *)
  | Mis_steer -> [ E.Conn_proto ]
  | Bad_contract -> Alcotest.fail "bad_contract never builds"

let report_objs r =
  match r with
  | San.Race (a1, a2) -> [ a1.San.a_obj; a2.San.a_obj ]
  | San.Atomicity { at_first; at_intruder; _ } ->
      [ at_first.San.a_obj; at_intruder.San.a_obj ]
  | San.Contract_breach a -> [ a.San.a_obj ]

let test_variant defect () =
  let name = Defect.name defect in
  (* Deep pipelining on a single connection keeps several segments of
     one flow in flight at once — the overlap the lock variants need
     before their defect is observable. mis_steer instead mis-indexes
     odd connection indices, so it needs more than one connection. *)
  let conns = match defect with Defect.Mis_steer -> 4 | _ -> 1 in
  let stats, a, b = echo_pair ~defect ~conns ~pipeline:8 ~ms:20 () in
  check_bool "workload ran" true (Host.Rpc.Stats.ops stats > 50);
  let reports = all_reports [ a; b ] in
  check_bool
    (Printf.sprintf "%s detected (%d reports)" name
       (total_report_count [ a; b ]))
    true
    (reports <> []);
  let objs = List.concat_map report_objs reports in
  check_bool
    (Printf.sprintf "%s diagnostics name the defect's region" name)
    true
    (List.exists (fun o -> List.mem o objs) (expected_objs defect))

(* The defects that build, and so are FlexSan's to catch at runtime. *)
let dynamic_variants =
  List.filter (fun d -> not (Defect.rejected_at_create d)) Defect.all

(* The seeded pipelines must still be functionally correct (the
   defects are latent races, invisible to the single-threaded
   simulator) — otherwise the corpus would be testing breakage, not
   detection. *)
let test_variants_behavior_preserved () =
  List.iter
    (fun defect ->
      let stats, _, _ = echo_pair ~defect ~conns:1 ~pipeline:4 ~ms:10 () in
      check_bool (Defect.name defect ^ " still serves traffic") true
        (Host.Rpc.Stats.ops stats > 50))
    dynamic_variants

let suite =
  [
    Alcotest.test_case "static: builtin contracts sound" `Quick
      test_builtin_contracts_sound;
    Alcotest.test_case "static: conflicts detected" `Quick
      test_static_conflicts;
    Alcotest.test_case "static: serialization admits overlap" `Quick
      test_static_serialization_admits;
    Alcotest.test_case "static: bad contract fails at create" `Quick
      test_bad_contract_fails_fast;
    Alcotest.test_case "dynamic: unordered writes race" `Quick
      test_unordered_writes_race;
    Alcotest.test_case "dynamic: channel edge orders" `Quick
      test_channel_edge_orders;
    Alcotest.test_case "dynamic: token edge orders" `Quick
      test_token_edge_orders;
    Alcotest.test_case "dynamic: program order" `Quick
      test_same_thread_ordered;
    Alcotest.test_case "dynamic: reads don't race" `Quick
      test_reads_dont_race;
    Alcotest.test_case "dynamic: flows isolated" `Quick test_flows_isolated;
    Alcotest.test_case "dynamic: payload intervals" `Quick
      test_payload_intervals;
    Alcotest.test_case "dynamic: atomicity violation" `Quick
      test_atomicity_violation;
    Alcotest.test_case "dynamic: serialized spans clean" `Quick
      test_span_clean_when_serialized;
    Alcotest.test_case "dynamic: conformance breach" `Quick
      test_conformance_breach;
    Alcotest.test_case "pipeline: healthy run is clean" `Quick
      test_healthy_pipeline_clean;
    Alcotest.test_case "dynamic: overtaking delivery" `Quick
      test_overtaking_delivery;
    Alcotest.test_case "pipeline: capture load is clean" `Quick
      test_capture_load_clean;
    Alcotest.test_case "pipeline: rtc mode exempt" `Quick test_rtc_mode_no_san;
    Alcotest.test_case "pipeline: off by default" `Quick
      test_san_off_by_default;
    Alcotest.test_case "corpus: variants behavior-preserving" `Quick
      test_variants_behavior_preserved;
  ]
  @ List.map
      (fun d ->
        Alcotest.test_case ("corpus: " ^ Defect.name d) `Quick (test_variant d))
      dynamic_variants
