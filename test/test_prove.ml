(* FlexProve tests: the pairwise corpus of the interference pass
   (diagnostics must name the right stages and region, and the
   serialization, single-slot, atomic and partitioned escapes must
   hold), the graph passes on the real extracted pipeline (one graph
   at every FlexScale shard count) and on synthetic counterexample
   graphs, sabotage classification (every
   catalogue defect's FlexProve verdict matches its owner), a seeded
   defect that still constructs, each seeded variant's difference from
   the builtin table, and the teardown-FSM model check with
   its seeded mutations. *)

module E = Flextoe.Effects
module G = Flextoe.Graph_ir
module P = Flextoe.Prove
module C = Flextoe.Conn_state
module D = Flextoe.Datapath
module Config = Flextoe.Config
module Defect = Flextoe.Defect

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let contract stage ?(reads = []) ?(writes = []) domain =
  { E.c_stage = stage; c_reads = reads; c_writes = writes;
    c_domain = domain }

(* --- Synthetic graphs ---------------------------------------------------- *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  ln = 0 || go 0

let node ?(slots = 2) ?(serialized = true) name c =
  { G.n_name = name; n_contract = c; n_slots = slots;
    n_serialized_writes = serialized }

let idle name = contract name E.Serial_none

let credit ?drain src dst label tokens =
  { G.e_src = src; e_dst = dst; e_label = label;
    e_kind = G.Credit { cr_tokens = tokens }; e_drain = drain }

let flow ?(ordered = true) src dst label =
  { G.e_src = src; e_dst = dst; e_label = label;
    e_kind = G.Dataflow { df_ordered = ordered }; e_drain = None }

let graph name nodes edges =
  { G.g_name = name; g_nodes = nodes; g_edges = edges }

(* A node named after its stage. *)
let stage ?slots name ?reads ?writes domain =
  node ?slots name (contract name ?reads ?writes domain)

(* --- Pairwise corpus: the interference pass on two-stage graphs ------ *)

(* Rejected, with an interference finding on the pair [a]/[b] (either
   order) whose diagnostic names both stages and the region. *)
let expect_conflict name ?(edges = []) nodes ~stages:(a, b) ~obj =
  match P.check_graph (graph name nodes edges) with
  | Ok _ -> Alcotest.failf "%s: overlap not detected" name
  | Error fs ->
      check_bool (name ^ ": a finding names the stages and region") true
        (List.exists
           (fun f ->
             let names x = contains f.P.f_detail x in
             f.P.f_pass = "interference"
             && (f.P.f_subject = a ^ "/" ^ b || f.P.f_subject = b ^ "/" ^ a)
             && names (a ^ ":") && names (b ^ ":")
             && names ("(" ^ E.obj_name obj ^ ")"))
           fs)

let expect_clean name ?(edges = []) nodes =
  match P.check_graph (graph name nodes edges) with
  | Ok _ -> ()
  | Error fs ->
      Alcotest.failf "%s: spurious finding: %s" name
        (String.concat "; " (List.map P.finding_to_string fs))

let test_effects_ww () =
  expect_conflict "W/W unserialized"
    [
      stage "alpha" ~writes:[ E.Conn_proto ] E.Serial_none;
      stage "beta" ~writes:[ E.Conn_proto ] E.Serial_none;
    ]
    ~stages:("alpha", "beta") ~obj:E.Conn_proto;
  expect_conflict "W/R unserialized"
    [
      stage "writer" ~writes:[ E.Reasm ] E.Serial_none;
      stage "reader" ~reads:[ E.Reasm ] E.Serial_none;
    ]
    ~stages:("writer", "reader") ~obj:E.Reasm

let test_effects_wr_cross_domain () =
  (* Different FIFO queues do not order each other. *)
  expect_conflict "W/R across distinct queues"
    ~edges:[ flow "writer" "reader" "q-a"; flow "reader" "writer" "q-b" ]
    [
      stage "writer" ~writes:[ E.Reasm ] (E.Serial_queue "q-a");
      stage "reader" ~reads:[ E.Reasm ] (E.Serial_queue "q-b");
    ]
    ~stages:("writer", "reader") ~obj:E.Reasm;
  (* Same queue: ordered, no conflict, for reads and writes alike. *)
  expect_clean "W/W and W/R within one queue"
    ~edges:[ flow "writer" "reader" "q" ]
    [
      stage "writer" ~writes:[ E.Reasm ] (E.Serial_queue "q");
      stage "reader" ~reads:[ E.Reasm ] ~writes:[ E.Reasm ]
        (E.Serial_queue "q");
    ];
  (* Distinct flow-group sequencers likewise do not order. *)
  expect_conflict "W/W across distinct flow groups"
    ~edges:[ flow "fg1" "fg2" "g-a"; flow "fg2" "fg1" "g-b" ]
    [
      stage "fg1" ~writes:[ E.Conn_proto ] (E.Serial_flow_group "g-a");
      stage "fg2" ~writes:[ E.Conn_proto ] (E.Serial_flow_group "g-b");
    ]
    ~stages:("fg1", "fg2") ~obj:E.Conn_proto;
  (* The per-connection lock orders every stage that takes it. *)
  expect_clean "W/W under the per-conn lock"
    [
      stage "alpha" ~writes:[ E.Conn_proto ] E.Serial_conn;
      stage "beta" ~reads:[ E.Conn_proto ] ~writes:[ E.Conn_proto ]
        E.Serial_conn;
    ]

let test_effects_self_pair () =
  (* A replicated unserialized stage races its own replicas... *)
  expect_conflict "2-slot unserialized writer"
    [ stage ~slots:2 "solo" ~writes:[ E.Conn_proto ] E.Serial_none ]
    ~stages:("solo", "solo") ~obj:E.Conn_proto;
  (* ... but one execution slot cannot race itself... *)
  expect_clean "1-slot unserialized writer"
    [ stage ~slots:1 "solo" ~writes:[ E.Conn_proto ] E.Serial_none ];
  (* ... and the per-conn lock covers the self-pair. *)
  expect_clean "serialized self-pair"
    [ stage "solo" ~writes:[ E.Conn_proto ] E.Serial_conn ]

let test_effects_escapes () =
  (* Atomic regions (counters, rings): concurrent writes are safe by
     construction and must not be flagged. *)
  expect_clean "atomic escape"
    [
      stage "alpha" ~writes:[ E.Conn_post; E.Global_stats ] E.Serial_none;
      stage "beta" ~writes:[ E.Conn_post; E.Global_stats ] E.Serial_none;
    ];
  (* Address-partitioned payload buffers: concurrent accesses touch
     disjoint ranges (FlexSan checks the ranges at runtime), so only a
     reader needs its ordered hand-off from the writer. *)
  expect_clean "partitioned escape, W/W"
    [
      stage "alpha" ~writes:[ E.Rx_payload ] E.Serial_none;
      stage "beta" ~writes:[ E.Rx_payload ] E.Serial_none;
    ];
  expect_clean "partitioned escape, W/R" ~edges:[ flow "writer" "reader" "wr" ]
    [
      stage "writer" ~writes:[ E.Rx_payload ] E.Serial_none;
      stage "reader" ~reads:[ E.Rx_payload ] E.Serial_none;
    ]

(* --- Graph passes: the real pipeline --------------------------------- *)

let cfg ?(batch = 1) ?(guard = false) () =
  {
    Config.default with
    Config.batch;
    guard = (if guard then Config.guard_default else Config.guard_none);
  }

let test_builtin_graph_clean () =
  List.iter
    (fun batch ->
      List.iter
        (fun guard ->
          match
            P.check_graph (G.builtin ~config:(cfg ~batch ~guard ()) ())
          with
          | Ok reports ->
              check_int
                (Printf.sprintf "three passes ran (batch=%d guard=%b)" batch
                   guard)
                3 (List.length reports)
          | Error fs ->
              Alcotest.failf "builtin graph rejected (batch=%d guard=%b): %s"
                batch guard
                (String.concat "; " (List.map P.finding_to_string fs)))
        [ false; true ])
    [ 1; 8; 16 ]

let test_builtin_graph_dot () =
  let dot = G.to_dot (G.builtin ~config:Config.default ()) in
  List.iter
    (fun needle ->
      check_bool ("dot mentions " ^ needle) true (contains dot needle))
    [ "digraph"; "protocol"; "pcie-dma"; "nbi-pool"; "rx-gro" ]

(* --- Sabotage classification ----------------------------------------- *)

(* The FlexProve column of the corpus: over the as-built graph, every
   defect the catalogue says FlexProve owns is caught and every one it
   calls dynamic-only is not (a defect both caught and tagged would mean
   the rationale is stale), and at least five are caught statically. *)
let test_sabotage_classification () =
  let graph_caught defect =
    match
      P.check_graph
        (G.builtin ~pipeline:(Defect.pipeline defect) ~config:Config.default ())
    with
    | Error _ -> true
    | Ok _ -> false
  in
  List.iter
    (fun d ->
      check_bool
        (Defect.name d ^ ": FlexProve verdict matches the catalogue")
        (Defect.dynamic_only Defect.Flexprove d = None)
        (graph_caught d))
    Defect.all;
  let caught = List.filter graph_caught Defect.all in
  check_bool
    (Printf.sprintf "at least 5 of %d defects caught statically (got %d)"
       (List.length Defect.all) (List.length caught))
    true
    (List.length caught >= 5)

let test_healthy_create_unaffected () =
  (* The create-time check runs on the declared graph; a node seeded
     with an as-built defect must still construct (FlexSan owns it at
     runtime). Only bad_contract changes a declaration (test_infer's
     corpus owners). *)
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let dp =
    D.create engine ~config:Config.default ~fabric ~mac:1 ~ip:0x0A000001
      ~pipeline:(Defect.pipeline Defect.No_lock) ()
  in
  ignore dp

(* --- Pipeline table projections ---------------------------------------- *)

module PL = Flextoe.Pipeline

let new_dp ?pipeline config =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  D.create engine ~config ~fabric ~mac:1 ~ip:0x0A000001 ?pipeline ()

let with_par f =
  { Config.default with
    Config.parallelism = f Config.default.Config.parallelism }

let projection_configs =
  [
    ("default", Config.default);
    ("flow_groups 1", with_par (fun p -> { p with Config.flow_groups = 1 }));
    ("flow_groups 4", with_par (fun p -> { p with Config.flow_groups = 4 }));
    ( "replicas 3/2",
      with_par (fun p ->
          { p with Config.preproc_replicas = 3; postproc_replicas = 2 }) );
    ("fpc_threads 1", with_par (fun p -> { p with Config.fpc_threads = 1 }));
    ("fpc_threads 8", with_par (fun p -> { p with Config.fpc_threads = 8 }));
    ("scale_of 4", { Config.default with Config.scale = Config.scale_of 4 });
  ]

(* The FPC pools of a parallelism config, written out independently of
   the table: (pool, island, FPC names). perfbench's nfp.* keys and the
   sanitizer's thread names read these names. *)
let expected_pools (par : Config.parallelism) =
  let g = Int.max 1 par.Config.flow_groups in
  let names prefix first n =
    List.init n (fun i -> prefix ^ string_of_int (first + i))
  in
  let per_group name prefix n ~first =
    List.init g (fun i -> (name, i, names prefix (first i) n))
  in
  let r = Int.max 1 in
  per_group "preproc" "pre" (r par.Config.preproc_replicas) ~first:(fun i ->
      i * r par.Config.preproc_replicas)
  @ per_group "protocol" "proto" (r par.Config.proto_replicas) ~first:(fun i ->
        i * 10)
  @ per_group "postproc" "post" (r par.Config.postproc_replicas)
      ~first:(fun i -> i * 10)
  @ per_group "xdp" "xdp" 3 ~first:(fun i -> i * 3)
  @ [
      ("dma", -1, names "dma" 0 4);
      ("ctx", -1, names "ctx" 0 4);
      ("sch", -1, [ "sch0" ]);
      ("gro", -1, [ "gro0" ]);
    ]

let test_pipeline_projections () =
  List.iter
    (fun (label, config) ->
      let dp = new_dp config in
      let pools = D.fpc_pools dp in
      let got =
        List.map
          (fun (n, island, a) ->
            (n, island, Array.to_list (Array.map Nfp.Fpc.name a)))
          pools
      in
      Alcotest.(check (list (triple string int (list string))))
        (label ^ ": fpc_pools names, islands and FPCs")
        (List.sort compare (expected_pools config.Config.parallelism))
        (List.sort compare got);
      (* Every FPC-backed graph node's slots are the threads of all the
         FPCs built for its stage, on every island. *)
      let checked = ref 0 in
      List.iter
        (fun (n : G.node) ->
          match List.find_opt (fun s -> PL.name s = n.G.n_name) PL.builtin with
          | Some { PL.s_exec = PL.Fpcs pool; _ } ->
              incr checked;
              let threads =
                List.fold_left
                  (fun acc (name, _, a) ->
                    if name = pool.PL.p_name then
                      Array.fold_left (fun acc f -> acc + Nfp.Fpc.threads f)
                        acc a
                    else acc)
                  0 pools
              in
              check_int
                (Printf.sprintf "%s: %s slots = built FPC threads" label
                   n.G.n_name)
                threads n.G.n_slots
          | _ -> ())
        (G.builtin ~config ()).G.g_nodes;
      check_bool (label ^ ": every FPC stage checked") true
        (!checked >= 7))
    projection_configs

(* A non-striped pool numbers group g's FPCs from 10g: at 11 replicas
   per group, group 0's eleventh FPC and group 1's first would share a
   name (and so a FlexSan thread), so create refuses the config and
   names the pool; at 10 the names stay distinct. *)
let test_pipeline_fpc_name_clash () =
  let par f = with_par (fun p -> f { p with Config.flow_groups = 2 }) in
  List.iter
    (fun (pool, config) ->
      match new_dp config with
      | exception Invalid_argument msg ->
          check_bool
            (Printf.sprintf "%s: the error names the pool (%s)" pool msg)
            true
            (contains msg ("pool " ^ pool))
      | _ -> Alcotest.failf "%s: 11 replicas per group accepted" pool)
    [
      ("protocol", par (fun p -> { p with Config.proto_replicas = 11 }));
      ("postproc", par (fun p -> { p with Config.postproc_replicas = 11 }));
    ];
  ignore
    (new_dp
       (par (fun p ->
            { p with Config.proto_replicas = 10; postproc_replicas = 10 })))

let test_pipeline_broken_tables () =
  let raises label table =
    match new_dp ~pipeline:table Config.default with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: Datapath.create accepted the table" label
  in
  let renamed =
    { PL.gro with
      PL.s_contract = { PL.gro.PL.s_contract with E.c_stage = "splice" } }
  in
  raises "row whose contract matches no stage" (PL.builtin @ [ renamed ]);
  raises "stage with no contract row"
    (List.filter (fun s -> PL.name s <> PL.name PL.gro) PL.builtin);
  raises "two rows for one stage" (PL.builtin @ [ PL.gro ]);
  raises "departure at a row that cannot build it"
    (List.map
       (fun s ->
         if PL.name s = PL.name PL.gro then
           { s with PL.s_departure = Some PL.Lock_skipped }
         else s)
       PL.builtin);
  (* A well-formed edit of the table reaches the wiring. *)
  let wider =
    List.map
      (fun s ->
        match s.PL.s_exec with
        | PL.Fpcs p when PL.name s = PL.name PL.protocol ->
            { s with PL.s_exec = PL.Fpcs { p with PL.p_replicas = (fun _ -> 3) } }
        | _ -> s)
      PL.builtin
  in
  let pools = D.fpc_pools (new_dp ~pipeline:wider Config.default) in
  check_bool "edited protocol row: three FPCs per group" true
    (List.for_all
       (fun (n, _, a) -> n <> "protocol" || Array.length a = 3)
       pools)

(* Each seeded variant is the builtin table with the one row its
   defect names changed, in its departure or (Bad_contract) its
   declaration, and nothing else. In the as-built graph at most that
   row's node, or one edge leaving it, differs; only a steering
   function leaves the graph unchanged. The builtin table itself
   departs nowhere. *)
let test_variants_differ_only_where_named () =
  List.iter
    (fun s ->
      check_bool (PL.name s ^ ": builtin row built as declared") true
        (Option.is_none s.PL.s_departure))
    PL.builtin;
  let graph pipeline = G.builtin ~pipeline ~config:Config.default () in
  let clean = graph PL.builtin in
  List.iter
    (fun d ->
      let name = Defect.name d and row = Defect.row d in
      let variant = Defect.pipeline d in
      check_int (name ^ ": as many rows") (List.length PL.builtin)
        (List.length variant);
      List.iter2
        (fun b v ->
          if PL.name b <> row then
            check_bool (name ^ ": keeps row " ^ PL.name b) true (b == v)
          else
            check_bool (name ^ ": changes only the departure or contract of "
                        ^ row) true
              (v.PL.s_exec == b.PL.s_exec && v.PL.s_place = b.PL.s_place
              && v.PL.s_entries = b.PL.s_entries
              && v.PL.s_points = b.PL.s_points
              && Option.is_some v.PL.s_departure
                 <> (v.PL.s_contract <> b.PL.s_contract)))
        PL.builtin variant;
      let g = graph variant in
      let fresh base l = List.filter (fun x -> not (List.mem x base)) l in
      let steers =
        match (List.find (fun s -> PL.name s = row) variant).PL.s_departure with
        | Some (PL.Steer _) -> true
        | _ -> false
      in
      check_bool (name ^ ": one node or edge of row " ^ row ^ " differs") true
        (List.length g.G.g_nodes = List.length clean.G.g_nodes
        && List.length g.G.g_edges = List.length clean.G.g_edges
        &&
        match
          (fresh clean.G.g_nodes g.G.g_nodes, fresh clean.G.g_edges g.G.g_edges)
        with
        | [], [] -> steers
        | [ n ], [] -> n.G.n_name = row
        | [], [ e ] -> e.G.e_src = row
        | _ -> false))
    Defect.all

(* --- Graph passes: synthetic counterexamples ------------------------- *)

let test_deadlock_cycle () =
  let nodes = [ node "a" (idle "a"); node "b" (idle "b") ] in
  (* a waits on credits only b returns, and vice versa: classic
     two-party credit deadlock. *)
  let dead =
    graph "dead" nodes [ credit "a" "b" "ab" 4; credit "b" "a" "ba" 4 ]
  in
  (match P.check_graph dead with
  | Ok _ -> Alcotest.fail "credit cycle without drain not detected"
  | Error fs ->
      check_bool "finding names the cycle" true
        (List.exists
           (fun f ->
             f.P.f_pass = "deadlock" && contains f.P.f_subject "ab")
           fs));
  (* The same loop with one self-draining edge is sound. *)
  let alive =
    graph "alive" nodes
      [ credit "a" "b" "ab" 4;
        credit ~drain:"completion timer always returns tokens" "b" "a" "ba" 4 ]
  in
  match P.check_graph alive with
  | Ok _ -> ()
  | Error fs ->
      Alcotest.failf "drained cycle spuriously rejected: %s"
        (String.concat "; " (List.map P.finding_to_string fs))

let test_bounds_overflow () =
  let q bound cap =
    {
      G.e_src = "a";
      e_dst = "b";
      e_label = "q";
      e_kind =
        G.Queue
          { q_capacity = cap; q_overflow = G.Reject; q_batch = 1;
            q_bound = bound };
      e_drain = None;
    }
  in
  let nodes = [ node "a" (idle "a"); node "b" (idle "b") ] in
  (match P.check_graph (graph "over" nodes [ q (G.Const 16) (G.Bounded 8) ]) with
  | Ok _ -> Alcotest.fail "occupancy 16 > capacity 8 not detected"
  | Error fs ->
      check_bool "finding names the overflowing edge" true
        (List.exists
           (fun f ->
             f.P.f_pass = "bounds" && f.P.f_subject = "q"
             && contains f.P.f_detail "16"
             && contains f.P.f_detail "8")
           fs));
  (* Unresolvable bound: references a credit edge that is not there. *)
  (match
     P.check_graph
       (graph "dangling" nodes [ q (G.Tokens "nowhere") (G.Bounded 8) ])
   with
  | Ok _ -> Alcotest.fail "unresolvable bound not detected"
  | Error fs ->
      check_bool "finding says the bound is unprovable" true
        (List.exists (fun f -> contains f.P.f_detail "nowhere") fs));
  (* Open-loop inflow into a Reject queue is never provable. *)
  (match
     P.check_graph
       (graph "open" nodes [ q (G.Unbounded_by "wire") G.Unbounded ])
   with
  | Ok _ -> Alcotest.fail "open-loop Reject queue not detected"
  | Error _ -> ());
  (* Fitting bound passes. *)
  match P.check_graph (graph "fits" nodes [ q (G.Const 8) (G.Bounded 8) ]) with
  | Ok _ -> ()
  | Error fs ->
      Alcotest.failf "fitting bound spuriously rejected: %s"
        (String.concat "; " (List.map P.finding_to_string fs))

let test_unrealized_domain () =
  let g =
    graph "dangling-domain"
      [ node "a" (contract "a" ~writes:[ E.Conn_proto ]
                    (E.Serial_queue "nowhere")) ]
      []
  in
  match P.check_graph g with
  | Ok _ -> Alcotest.fail "unrealized serialization domain not detected"
  | Error fs ->
      check_bool "finding names the domain" true
        (List.exists
           (fun f ->
             f.P.f_pass = "interference" && contains f.P.f_detail "nowhere")
           fs)

let test_partitioned_handoff_needs_order () =
  let w = node "w" (contract "w" ~writes:[ E.Rx_payload ] E.Serial_none) in
  let r = node "r" (contract "r" ~reads:[ E.Rx_payload ] E.Serial_none) in
  (* No path from writer to reader: the partitioned-region argument
     has no ordering leg to stand on. *)
  (match P.check_graph (graph "no-path" [ w; r ] []) with
  | Ok _ -> Alcotest.fail "missing ordered hand-off not detected"
  | Error fs ->
      check_bool "finding names region and endpoints" true
        (List.exists
           (fun f ->
             f.P.f_pass = "interference"
             && contains f.P.f_subject "w->r"
             && contains f.P.f_detail "rx-payload")
           fs));
  (* An ordered dataflow edge discharges the obligation... *)
  (match P.check_graph (graph "path" [ w; r ] [ flow "w" "r" "wr" ]) with
  | Ok _ -> ()
  | Error fs ->
      Alcotest.failf "ordered hand-off spuriously rejected: %s"
        (String.concat "; " (List.map P.finding_to_string fs)));
  (* ... an unordered one does not. *)
  match
    P.check_graph (graph "unordered" [ w; r ] [ flow ~ordered:false "w" "r" "wr" ])
  with
  | Ok _ -> Alcotest.fail "unordered hand-off accepted"
  | Error _ -> ()

(* --- The builtin graph at FlexScale shard counts ------------------- *)

(* Shards split flow groups over cache slices, scheduler rings and
   admission slices and add no FPC, lock table or sequencer: the graph
   at any shard count is the unsharded one, over [flexlint graph]'s
   whole batch/guard matrix. *)
let test_builtin_shard_invariant () =
  List.iter
    (fun batch ->
      List.iter
        (fun guard ->
          let config = { (cfg ~batch ~guard ()) with
                         Config.scale = Config.scale_none } in
          let unsharded = G.builtin ~config () in
          List.iter
            (fun shards ->
              check_bool
                (Printf.sprintf "batch=%d guard=%b: scale_of %d graph = \
                                 scale_none graph" batch guard shards)
                true
                (G.builtin
                   ~config:{ config with Config.scale = Config.scale_of shards }
                   ()
                = unsharded))
            [ 2; 3; 4; 8 ])
        [ false; true ])
    [ 1; 8; 16 ]

(* --- Teardown FSM: the real table ------------------------------------ *)

(* The two modes the control plane builds: unguarded, and guarded
   with its TIME_WAIT hold. *)
let modes = [ false; true ]

let test_fsm_real_table () =
  List.iter
    (fun guard ->
      match P.check_fsm ~guard () with
      | Ok _notes -> ()
      | Error c ->
          Alcotest.failf "real table rejected (guard=%b): %s" guard
            (P.counterexample_to_string c))
    modes

let test_fsm_mutations_rejected () =
  List.iter
    (fun (name, step) ->
      let rejected =
        List.exists
          (fun guard ->
            match P.check_fsm ~step ~guard () with
            | Error _ -> true
            | Ok _ -> false)
          modes
      in
      check_bool ("mutation " ^ name ^ " rejected in some mode") true
        rejected)
    P.fsm_mutations;
  (* The flagship mutation: dropping the TIME_WAIT re-ACK must come
     back with a path-to-violation counterexample that walks into
     TIME_WAIT. *)
  let step = List.assoc "drop_tw_reack" P.fsm_mutations in
  match P.check_fsm ~step ~guard:true () with
  | Ok _ -> Alcotest.fail "drop_tw_reack not rejected"
  | Error c ->
      let s = P.counterexample_to_string c in
      check_bool "counterexample walks to TIME_WAIT" true
        (contains s "TIME_WAIT");
      check_bool "counterexample shows the event path" true
        (contains s "-->");
      check_bool "counterexample starts at ESTABLISHED" true
        (contains s "ESTABLISHED")

(* Direction monotonicity, checked directly on the real table (the
   checker tests the same property; this pins it independently of the
   checker's own reachability logic). *)
let closed_dirs = function
  | C.Phase C.Established -> (false, false)
  | C.Phase C.Fin_wait_1 | C.Phase C.Fin_wait_2 -> (true, false)
  | C.Phase C.Close_wait -> (false, true)
  | C.Phase C.Closing | C.Phase C.Closed -> (true, true)
  | C.Time_wait | C.Reclaimed -> (true, true)

let test_step_monotone () =
  List.iter
    (fun guard ->
      List.iter
        (fun s ->
          List.iter
            (fun e ->
              let s', _ = C.step ~guard s e in
              let txc, rxc = closed_dirs s in
              let txc', rxc' = closed_dirs s' in
              check_bool
                (Printf.sprintf "%s --%s--> %s keeps directions closed"
                   (C.lifecycle_name s) (C.event_name e)
                   (C.lifecycle_name s'))
                true
                ((not (txc && not txc')) && not (rxc && not rxc')))
            C.all_events)
        C.all_lifecycles)
    modes

let test_step_teardown_equivalence () =
  (* The CP teardown poll acts exactly on fully-closed flows: only
     [Phase Closed] moves (to TIME_WAIT or RECLAIMED), everything else
     ignores the poll — the invariant the control-plane refactor onto
     [step] relies on. *)
  List.iter
    (fun guard ->
      List.iter
        (fun s ->
          let s', outs = C.step ~guard s C.Ev_teardown in
          match s with
          | C.Phase C.Closed ->
              check_bool "teardown frees datapath state" true
                (List.mem C.Out_free outs);
              check_bool "teardown parks iff guarded" true
                (s' = if guard then C.Time_wait else C.Reclaimed)
          | C.Reclaimed ->
              check_bool "reclaimed absorbs" true (s' = C.Reclaimed)
          | _ ->
              check_bool
                (Printf.sprintf "teardown is a no-op on %s"
                   (C.lifecycle_name s))
                true
                (s' = s && outs = []))
        C.all_lifecycles)
    modes

let test_fsm_dot () =
  let dot = P.fsm_dot ~guard:true () in
  List.iter
    (fun needle ->
      check_bool ("fsm dot mentions " ^ needle) true (contains dot needle))
    [ "digraph"; "ESTABLISHED"; "TIME_WAIT"; "RECLAIMED"; "tw_fin / reack" ]

let suite =
  [
    Alcotest.test_case "effects: W/W unserialized" `Quick test_effects_ww;
    Alcotest.test_case "effects: W/R cross-domain" `Quick
      test_effects_wr_cross_domain;
    Alcotest.test_case "effects: replica self-pair" `Quick
      test_effects_self_pair;
    Alcotest.test_case "effects: atomic/partitioned escapes" `Quick
      test_effects_escapes;
    Alcotest.test_case "graph: builtin clean at all degrees" `Quick
      test_builtin_graph_clean;
    Alcotest.test_case "graph: builtin DOT export" `Quick
      test_builtin_graph_dot;
    Alcotest.test_case "graph: sabotage classification" `Quick
      test_sabotage_classification;
    Alcotest.test_case "graph: sabotaged node still constructs" `Quick
      test_healthy_create_unaffected;
    Alcotest.test_case "pipeline: graph slots and pools match the built FPCs"
      `Quick test_pipeline_projections;
    Alcotest.test_case "pipeline: broken tables rejected at create" `Quick
      test_pipeline_broken_tables;
    Alcotest.test_case "pipeline: clashing FPC names rejected" `Quick
      test_pipeline_fpc_name_clash;
    Alcotest.test_case "seeded variants differ only where their defect says"
      `Quick test_variants_differ_only_where_named;
    Alcotest.test_case "graph: credit-cycle deadlock" `Quick
      test_deadlock_cycle;
    Alcotest.test_case "graph: queue-bound overflow" `Quick
      test_bounds_overflow;
    Alcotest.test_case "graph: unrealized domain" `Quick
      test_unrealized_domain;
    Alcotest.test_case "graph: partitioned hand-off ordering" `Quick
      test_partitioned_handoff_needs_order;
    Alcotest.test_case "graph: builtin same at every shard count" `Quick
      test_builtin_shard_invariant;
    Alcotest.test_case "fsm: real table passes all modes" `Quick
      test_fsm_real_table;
    Alcotest.test_case "fsm: seeded mutations rejected" `Quick
      test_fsm_mutations_rejected;
    Alcotest.test_case "fsm: step is direction-monotone" `Quick
      test_step_monotone;
    Alcotest.test_case "fsm: teardown equivalence" `Quick
      test_step_teardown_equivalence;
    Alcotest.test_case "fsm: DOT export" `Quick test_fsm_dot;
  ]
