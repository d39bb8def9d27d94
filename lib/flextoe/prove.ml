(** FlexProve: whole-graph static analysis over the {!Graph_ir}.

    Three graph passes, each a pure function of the IR, and a model
    check:

    - {!interference}: computes which stage executions may happen in
      parallel (serialization domains, early-release defects, replica
      self-races), footprint-checks every such pair against the
      {!Effects} contracts, verifies every named serialization domain
      is realized by an edge of the graph, and demands an ordered
      dataflow path from writer to reader for every
      address-partitioned ([r_disjoint]) region hand-off;
    - {!deadlock}: cycles in the wait-for graph of blocking edges
      (credits, backpressured queues) must contain a draining edge;
    - {!bounds}: worst-case occupancy of every queue, evaluated from
      the graph's own tokens and capacities, must fit the configured
      capacity wherever overflow would be a bug;
    - {!check_fsm}: exhaustive model check of the shared teardown
      transition table ({!Conn_state.step}) against the RFC-793/6191
      teardown spec, producing a path-to-violation counterexample.

    [Datapath.create] runs the three graph passes once per node, over
    the graph of its declared contracts, and raises {!Graph_rejected}
    on any finding: it is the node's one static check, so an unsound
    composition fails before any FPC is wired — and at zero
    per-segment cost. *)

module G = Graph_ir
module E = Effects

(* --- Reports ---------------------------------------------------------- *)

type finding = { f_pass : string; f_subject : string; f_detail : string }

type report = {
  r_pass : string;
  r_notes : string list;  (** What was proven, for the OK lines. *)
  r_findings : finding list;  (** Empty = the pass holds. *)
}

let finding_to_string f =
  Printf.sprintf "[%s] %s: %s" f.f_pass f.f_subject f.f_detail

exception Graph_rejected of finding list

let () =
  Printexc.register_printer (function
    | Graph_rejected fs ->
        Some
          ("Prove.Graph_rejected: "
          ^ String.concat "; " (List.map finding_to_string fs))
    | _ -> None)

(* --- Well-formedness (shared by the passes) --------------------------- *)

let wellformed_findings (g : G.t) =
  let fail subject detail = { f_pass = "graph"; f_subject = subject;
                              f_detail = detail } in
  let node_names = List.map (fun n -> n.G.n_name) g.G.g_nodes in
  let dup =
    List.filter
      (fun n -> List.length (List.filter (( = ) n) node_names) > 1)
      (List.sort_uniq String.compare node_names)
  in
  let dups = List.map (fun n -> fail n "duplicate node name") dup in
  let endpoints =
    List.concat_map
      (fun e ->
        List.filter_map
          (fun name ->
            if List.mem name node_names then None
            else Some (fail e.G.e_label ("unknown endpoint " ^ name)))
          [ e.G.e_src; e.G.e_dst ])
      g.G.g_edges
  in
  dups @ endpoints

(* --- Pass 1: whole-graph interference --------------------------------- *)

(* Two contracts share an ordering mechanism: the same sequencer, the
   same FIFO queue, or the per-connection lock. *)
let serialized_together (a : E.contract) (b : E.contract) =
  match (a.E.c_domain, b.E.c_domain) with
  | E.Serial_conn, E.Serial_conn -> true
  | E.Serial_flow_group x, E.Serial_flow_group y
  | E.Serial_queue x, E.Serial_queue y ->
      x = y
  | _ -> false

(* One direction: writes of [a] against reads and writes of [b],
   except on atomic and address-partitioned regions. *)
let conflicts_of_pair (a : E.contract) (b : E.contract) =
  List.filter_map
    (fun o ->
      let r = E.region o in
      let clash k2 =
        Some
          { E.k_stage1 = a.E.c_stage; k_kind1 = E.Write;
            k_stage2 = b.E.c_stage; k_kind2 = k2; k_obj = o }
      in
      if r.E.r_atomic || r.E.r_disjoint then None
      else if E.mem o b.E.c_writes then clash E.Write
      else if E.mem o b.E.c_reads then clash E.Read
      else None)
    a.E.c_writes

(* May two executions (one of [a], one of [b]) run concurrently for
   the same flow? Serialization domains order them only if both
   stages' writes actually stay inside the critical section; an
   early-release defect voids the domain's protection. A single stage
   races itself when it has multiple slots and no domain. *)
let may_run_concurrently a b =
  let serialized =
    serialized_together a.G.n_contract b.G.n_contract
    && a.G.n_serialized_writes && b.G.n_serialized_writes
  in
  if serialized then false
  else if a.G.n_name = b.G.n_name then
    (* Self-pair: only one execution exists unless the stage has
       multiple slots (or its single FPC is multi-threaded). *)
    a.G.n_slots > 1
  else true

(* Ordered dataflow reachability: a path of order-preserving work
   edges from [src] to [dst] means [src]'s completion of a unit
   happens-before [dst]'s processing of that unit. *)
let ordered_path (g : G.t) ~src ~dst =
  let rec bfs visited = function
    | [] -> false
    | n :: _ when n = dst -> true
    | n :: rest ->
        let next =
          List.filter_map
            (fun e ->
              if
                e.G.e_src = n && G.is_dataflow e && G.is_ordered e
                && not (List.mem e.G.e_dst visited)
              then Some e.G.e_dst
              else None)
            g.G.g_edges
        in
        bfs (next @ visited) (rest @ next)
  in
  src = dst || bfs [ src ] [ src ]

let interference (g : G.t) : report =
  let fail subject detail =
    { f_pass = "interference"; f_subject = subject; f_detail = detail }
  in
  let wf = wellformed_findings g in
  (* (a) Footprint compatibility over the may-happen-in-parallel
     relation. *)
  let rec pairs = function
    | [] -> []
    | n :: rest -> (n, n) :: List.map (fun m -> (n, m)) rest @ pairs rest
  in
  let conflicts =
    List.concat_map
      (fun (a, b) ->
        if not (may_run_concurrently a b) then []
        else
          let ca = a.G.n_contract and cb = b.G.n_contract in
          let cs =
            if a.G.n_name = b.G.n_name then conflicts_of_pair ca cb
            else conflicts_of_pair ca cb @ conflicts_of_pair cb ca
          in
          List.map
            (fun c ->
              fail
                (a.G.n_name ^ "/" ^ b.G.n_name)
                (E.conflict_to_string c))
            cs)
      (pairs g.G.g_nodes)
  in
  (* (b) Domain realization: a Serial_queue / Serial_flow_group claim
     is only as good as the queue or sequencer that implements it —
     it must exist as an edge of the graph. *)
  let labels = List.map (fun e -> e.G.e_label) g.G.g_edges in
  let domains =
    List.filter_map
      (fun n ->
        match n.G.n_contract.E.c_domain with
        | E.Serial_queue l | E.Serial_flow_group l ->
            if List.mem l labels then None
            else
              Some
                (fail n.G.n_name
                   (Printf.sprintf
                      "serialization domain %s is not realized by any \
                       edge of the graph"
                      (E.domain_name n.G.n_contract.E.c_domain)))
        | E.Serial_none | E.Serial_conn -> None)
      g.G.g_nodes
  in
  (* (c) Address-partitioned hand-offs: an [r_disjoint] region's
     safety argument is that the writer's ranges reach the reader
     through an ordered hand-off — demand the path. This is what
     makes "notify only after payload DMA" a declared, checkable
     obligation instead of a comment. *)
  let disjoint =
    List.concat_map
      (fun w ->
        List.concat_map
          (fun r ->
            if w.G.n_name = r.G.n_name then []
            else
              List.filter_map
                (fun o ->
                  let reg = E.region o in
                  if
                    reg.E.r_disjoint
                    && E.mem o w.G.n_contract.E.c_writes
                    && E.mem o r.G.n_contract.E.c_reads
                    && not (ordered_path g ~src:w.G.n_name ~dst:r.G.n_name)
                  then
                    Some
                      (fail
                         (w.G.n_name ^ "->" ^ r.G.n_name)
                         (Printf.sprintf
                            "no ordered dataflow path covers the \
                             partitioned hand-off of %s"
                            (E.obj_name o)))
                  else None)
                E.all_objs)
          g.G.g_nodes)
      g.G.g_nodes
  in
  let mhp =
    List.length
      (List.filter (fun (a, b) -> may_run_concurrently a b)
         (pairs g.G.g_nodes))
  in
  {
    r_pass = "interference";
    r_notes =
      [
        Printf.sprintf
          "%d stages, %d concurrent pairs footprint-checked, domains \
           realized, partitioned hand-offs ordered"
          (List.length g.G.g_nodes) mhp;
      ];
    r_findings = wf @ conflicts @ domains @ disjoint;
  }

(* --- Pass 2: deadlock freedom ----------------------------------------- *)

(* Wait-for graph: a blocking edge src→dst means src's progress can
   stall until dst makes progress. A cycle of blocking edges is a
   deadlock unless some edge on it drains on its own (timer flush,
   unconditional completion). Reported cycles name the nodes and the
   edge labels, so the overflowing composition is actionable. *)
let deadlock (g : G.t) : report =
  let blocking = List.filter G.is_blocking g.G.g_edges in
  (* Enumerate elementary cycles by DFS from each node (the graphs
     here are a dozen edges, so simplicity beats Johnson's). *)
  let cycles = ref [] in
  let rec dfs start path node =
    List.iter
      (fun e ->
        if e.G.e_src = node then
          if e.G.e_dst = start then cycles := List.rev (e :: path) :: !cycles
          else if
            not (List.exists (fun e' -> e'.G.e_src = e.G.e_dst) path)
            && e.G.e_dst >= start
            (* canonical start = smallest node name: each cycle once *)
          then dfs start (e :: path) e.G.e_dst)
      blocking
  in
  List.iter (fun n -> dfs n.G.n_name [] n.G.n_name) g.G.g_nodes;
  let cycle_findings =
    List.filter_map
      (fun cycle ->
        let drained =
          List.filter_map (fun e -> e.G.e_drain) cycle
        in
        let path =
          String.concat " -> "
            (List.map
               (fun e -> Printf.sprintf "%s[%s]" e.G.e_src e.G.e_label)
               cycle)
        in
        if drained = [] then
          Some
            {
              f_pass = "deadlock";
              f_subject = path;
              f_detail =
                "blocking cycle with no draining edge: every edge waits \
                 on the next";
            }
        else None)
      !cycles
  in
  let broken =
    List.filter
      (fun cycle -> List.exists (fun e -> e.G.e_drain <> None) cycle)
      !cycles
  in
  {
    r_pass = "deadlock";
    r_notes =
      [
        Printf.sprintf
          "%d blocking edges, %d cycle(s), %d broken by a draining edge"
          (List.length blocking) (List.length !cycles) (List.length broken);
      ];
    r_findings = cycle_findings;
  }

(* --- Pass 3: queue bounds --------------------------------------------- *)

let rec eval_bound (g : G.t) b : (int, string) result =
  let combine f = function
    | [] -> Error "empty bound expression"
    | x :: rest ->
        List.fold_left
          (fun acc y ->
            match (acc, eval_bound g y) with
            | Ok a, Ok v -> Ok (f a v)
            | (Error _ as e), _ -> e
            | _, (Error _ as e) -> e)
          (eval_bound g x) rest
  in
  match b with
  | G.Const n -> Ok n
  | G.Tokens l -> (
      match Option.bind (G.find_edge g l) G.edge_tokens with
      | Some t -> Ok t
      | None ->
          Error (Printf.sprintf "bound references no credit edge %s" l))
  | G.Cap l -> (
      match Option.bind (G.find_edge g l) G.edge_capacity with
      | Some (G.Bounded c) -> Ok c
      | Some G.Unbounded ->
          Error (Printf.sprintf "bound references unbounded queue %s" l)
      | None -> Error (Printf.sprintf "bound references no queue edge %s" l))
  | G.Sum bs -> combine ( + ) bs
  | G.Unbounded_by s -> Error (Printf.sprintf "open-loop inflow from %s" s)

let bounds (g : G.t) : report =
  let checked = ref 0 in
  let findings =
    List.filter_map
      (fun e ->
        match e.G.e_kind with
        | G.Dataflow _ | G.Credit _ -> None
        | G.Queue { q_overflow; q_bound; q_capacity; _ } -> (
            incr checked;
            match q_overflow with
            | G.Backpressure | G.Drop _ ->
                (* Occupancy cannot exceed capacity by construction
                   (blocking), or overflow is shed by stated policy. *)
                None
            | G.Reject -> (
                match (eval_bound g q_bound, q_capacity) with
                | Error e_msg, _ ->
                    Some
                      {
                        f_pass = "bounds";
                        f_subject = e.G.e_label;
                        f_detail =
                          "worst-case occupancy not provable: " ^ e_msg;
                      }
                | Ok v, G.Bounded c when v > c ->
                    Some
                      {
                        f_pass = "bounds";
                        f_subject = e.G.e_label;
                        f_detail =
                          Printf.sprintf
                            "worst-case occupancy %d (= %s) exceeds \
                             capacity %d on edge %s -> %s"
                            v
                            (G.bound_to_string q_bound)
                            c e.G.e_src e.G.e_dst;
                      }
                | Ok _, _ -> None)))
      g.G.g_edges
  in
  {
    r_pass = "bounds";
    r_notes =
      [ Printf.sprintf "%d queue(s): occupancy fits capacity" !checked ];
    r_findings = findings;
  }

(* --- Graph driver ------------------------------------------------------ *)

let check_graph g =
  let rs = [ interference g; deadlock g; bounds g ] in
  match List.concat_map (fun r -> r.r_findings) rs with
  | [] -> Ok rs
  | fs -> Error fs

(* --- Teardown FSM model check ---------------------------------- *)

module C = Conn_state

type fsm_step =
  guard:bool -> C.lifecycle -> C.close_event ->
  C.lifecycle * C.close_output list

type fsm_counterexample = {
  fc_path : (C.lifecycle * C.close_event) list;
      (** Shortest event path from ESTABLISHED to [fc_state]. *)
  fc_state : C.lifecycle;  (** The state where the spec breaks. *)
  fc_msg : string;
}

let path_to_string path dst =
  String.concat ""
    (List.map
       (fun (s, e) ->
         Printf.sprintf "%s --%s--> " (C.lifecycle_name s) (C.event_name e))
       path)
  ^ C.lifecycle_name dst

let counterexample_to_string c =
  match c.fc_path with
  | [] -> c.fc_msg
  | path -> path_to_string path c.fc_state ^ " : " ^ c.fc_msg

(* Direction-monotonicity spec: teardown never reopens a closed
   direction. *)
let closed_dirs = function
  | C.Phase C.Established -> (false, false)
  | C.Phase C.Fin_wait_1 | C.Phase C.Fin_wait_2 -> (true, false)
  | C.Phase C.Close_wait -> (false, true)
  | C.Phase C.Closing | C.Phase C.Closed -> (true, true)
  | C.Time_wait | C.Reclaimed -> (true, true)

(* Local events: fire without any cooperation from the peer or the
   application — timers and CP polls. Strong liveness (guard on) must
   reclaim every closing state through these alone; [Ev_abort] rides
   along because the RTO timer drives it whenever our FIN is in
   flight (the PR 6 fix made a lost FIN count as in-flight). *)
let local_events = [ C.Ev_teardown; C.Ev_reap_idle; C.Ev_tw_expire;
                     C.Ev_abort ]

let check_fsm ?(step : fsm_step = C.step) ~guard () :
    (string list, fsm_counterexample) result =
  let step = step ~guard in
  (* BFS of the reachable state space, recording one shortest event
     path per state for counterexamples. *)
  let paths : (C.lifecycle * (C.lifecycle * C.close_event) list) list ref =
    ref [ (C.Phase C.Established, []) ]
  in
  let frontier = ref [ C.Phase C.Established ] in
  while !frontier <> [] do
    let next =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun e ->
              let s', _ = step s e in
              if List.mem_assoc s' !paths then None
              else begin
                paths := (s', List.assoc s !paths @ [ (s, e) ]) :: !paths;
                Some s'
              end)
            C.all_events)
        !frontier
    in
    frontier := next
  done;
  let reachable = List.map fst !paths in
  let path_to s = List.assoc s !paths in
  let violation s msg =
    Error { fc_path = path_to s; fc_state = s; fc_msg = msg }
  in
  let rec first_error = function
    | [] -> Ok ()
    | check :: rest -> (
        match check () with Ok () -> first_error rest | e -> e)
  in
  let reaches_reclaimed ~events from =
    let rec go visited = function
      | [] -> false
      | C.Reclaimed :: _ -> true
      | s :: rest ->
          let next =
            List.filter_map
              (fun e ->
                let s', _ = step s e in
                if List.mem s' visited then None else Some s')
              events
          in
          go (next @ visited) (rest @ next)
    in
    go [ from ] [ from ]
  in
  let checks =
    [
      (* No unreachable-but-live states: every lifecycle state the
         mode keeps (TIME_WAIT only guarded) must be reachable (a
         state nothing can enter is dead weight the CP would never
         exercise). *)
      (fun () ->
        let expected =
          List.filter
            (fun s -> (s <> C.Time_wait) || guard)
            C.all_lifecycles
        in
        match List.find_opt (fun s -> not (List.mem s reachable)) expected with
        | Some s ->
            Error
              {
                fc_path = [];
                fc_state = s;
                fc_msg =
                  Printf.sprintf "state %s is unreachable (dead state)"
                    (C.lifecycle_name s);
              }
        | None -> Ok ());
      (* Unguarded, nothing holds a TIME_WAIT tuple: it must stay
         unreachable. *)
      (fun () ->
        if (not guard) && List.mem C.Time_wait reachable then
          violation C.Time_wait
            "TIME_WAIT reachable although the guard is off"
        else Ok ());
      (* Monotonicity: no transition reopens a closed direction. *)
      (fun () ->
        first_error
          (List.concat_map
             (fun s ->
               List.map
                 (fun e () ->
                   let s', _ = step s e in
                   let txc, rxc = closed_dirs s in
                   let txc', rxc' = closed_dirs s' in
                   if (txc && not txc') || (rxc && not rxc') then
                     violation s
                       (Printf.sprintf
                          "%s --%s--> %s reopens a closed direction"
                          (C.lifecycle_name s) (C.event_name e)
                          (C.lifecycle_name s'))
                   else Ok ())
                 C.all_events)
             reachable));
      (* RECLAIMED is absorbing and silent. *)
      (fun () ->
        first_error
          (List.map
             (fun e () ->
               match step C.Reclaimed e with
               | C.Reclaimed, [] -> Ok ()
               | s', _ ->
                   violation C.Reclaimed
                     (Printf.sprintf
                        "RECLAIMED --%s--> %s: reclaimed state is not \
                         absorbing"
                        (C.event_name e) (C.lifecycle_name s')))
             C.all_events));
      (* TIME_WAIT entry discipline: only the CP teardown poll on a
         fully-closed connection may park a tuple (RFC 793's
         prescribed entry, collapsed over our FIN bits). *)
      (fun () ->
        first_error
          (List.concat_map
             (fun s ->
               List.map
                 (fun e () ->
                   let s', _ = step s e in
                   if
                     s' = C.Time_wait && s <> C.Time_wait
                     && not (s = C.Phase C.Closed && e = C.Ev_teardown)
                   then
                     violation s
                       (Printf.sprintf
                          "TIME_WAIT entered via %s --%s-->: only \
                           teardown of CLOSED may park a tuple"
                          (C.lifecycle_name s) (C.event_name e))
                   else Ok ())
                 C.all_events)
             reachable));
      (* The TIME_WAIT re-ACK edge (RFC 793 §3.9: a retransmitted FIN
         must be re-acknowledged) — the edge the seeded mutation
         drops. *)
      (fun () ->
        if not (List.mem C.Time_wait reachable) then Ok ()
        else
          match step C.Time_wait C.Ev_tw_fin with
          | C.Time_wait, outs when List.mem C.Out_reack outs -> Ok ()
          | s', outs ->
              violation C.Time_wait
                (Printf.sprintf
                   "TIME_WAIT --tw_fin--> %s [%s]: peer FIN retransmit \
                    not re-ACKed"
                   (C.lifecycle_name s')
                   (String.concat ","
                      (List.map C.output_name outs))));
      (* Reaper exemptions: ESTABLISHED and CLOSE_WAIT are the
         application's business; the idle reaper must not touch
         them. *)
      (fun () ->
        first_error
          (List.map
             (fun s () ->
               match step s C.Ev_reap_idle with
               | s', _ when s' = s -> Ok ()
               | s', _ ->
                   violation s
                     (Printf.sprintf
                        "%s --reap_idle--> %s: reaper touched an exempt \
                         state"
                        (C.lifecycle_name s) (C.lifecycle_name s')))
             (List.filter
                (fun s -> List.mem s reachable)
                [ C.Phase C.Established; C.Phase C.Close_wait ])));
      (* Liveness: no un-reclaimable orphans. Guarded, every closing
         state must reach RECLAIMED through local events alone
         (timers and CP polls — no peer, no app). Unguarded, weak
         liveness (any events) is the honest claim: FIN_WAIT_2 with a
         vanished peer leaks by design, which is precisely what
         FlexGuard's reaper exists to fix. *)
      (fun () ->
        let closing =
          List.filter
            (fun s ->
              s <> C.Phase C.Established && s <> C.Phase C.Close_wait)
            reachable
        in
        let events = if guard then local_events else C.all_events in
        match
          List.find_opt
            (fun s -> not (reaches_reclaimed ~events s))
            closing
        with
        | Some s ->
            violation s
              (Printf.sprintf
                 "%s cannot reach RECLAIMED via %s events \
                  (un-reclaimable orphan)"
                 (C.lifecycle_name s)
                 (if guard then "local (timer/poll)" else "any"))
        | None -> Ok ());
    ]
  in
  match first_error checks with
  | Error c -> Error c
  | Ok () ->
      Ok
        [
          Printf.sprintf
            "%d states reachable, %d transitions enumerated; monotone, \
             TIME_WAIT disciplined, %s liveness"
            (List.length reachable)
            (List.length reachable * List.length C.all_events)
            (if guard then "strong (local-event)" else "weak");
        ]

(* --- Seeded FSM mutations (checker self-test) -------------------------- *)

(* Each mutation rewrites one row of the table; [flexlint fsm
   --mutate] runs the checker over the mutant and must obtain a
   counterexample — the moral equivalent of [flexlint san --seeded]
   for the model checker. *)
let mutate f : fsm_step =
 fun ~guard s e ->
  match f s e with Some r -> r | None -> C.step ~guard s e

let fsm_mutations : (string * fsm_step) list =
  [
    ( "drop_tw_reack",
      mutate (fun s e ->
          match (s, e) with
          | C.Time_wait, C.Ev_tw_fin -> Some (C.Time_wait, [])
          | _ -> None) );
    ( "skip_time_wait",
      mutate (fun s e ->
          match (s, e) with
          | C.Phase C.Closed, C.Ev_teardown ->
              Some (C.Reclaimed, [ C.Out_free ])
          | _ -> None) );
    ( "tw_immortal",
      mutate (fun s e ->
          match (s, e) with
          | C.Time_wait, (C.Ev_tw_expire | C.Ev_tw_syn) ->
              Some (C.Time_wait, [])
          | _ -> None) );
    ( "reopen_rx",
      mutate (fun s e ->
          match (s, e) with
          | C.Phase C.Closing, C.Ev_fin_acked ->
              Some (C.Phase C.Fin_wait_2, [])
          | _ -> None) );
    ( "reap_established",
      mutate (fun s e ->
          match (s, e) with
          | C.Phase C.Established, C.Ev_reap_idle ->
              Some (C.Reclaimed, [ C.Out_free ])
          | _ -> None) );
  ]

let fsm_dot ?(step : fsm_step = C.step) ~guard () =
  let step = step ~guard in
  let buf = Buffer.create 2048 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph teardown {\n  rankdir=LR;\n  node [shape=ellipse];\n";
  let seen = ref [] in
  let reachable = ref [ C.Phase C.Established ] in
  let frontier = ref [ C.Phase C.Established ] in
  while !frontier <> [] do
    let next =
      List.concat_map
        (fun s ->
          List.filter_map
            (fun e ->
              let s', outs = step s e in
              if s' <> s then begin
                let key = (s, e, s') in
                if not (List.mem key !seen) then begin
                  seen := key :: !seen;
                  pf "  \"%s\" -> \"%s\" [label=\"%s%s\"];\n"
                    (C.lifecycle_name s) (C.lifecycle_name s')
                    (C.event_name e)
                    (match outs with
                    | [] -> ""
                    | _ ->
                        " / "
                        ^ String.concat ","
                            (List.map C.output_name outs))
                end;
                if List.mem s' !reachable then None
                else begin
                  reachable := s' :: !reachable;
                  Some s'
                end
              end
              else None)
            C.all_events)
        !frontier
    in
    frontier := next
  done;
  (* Self-loop outputs worth showing (the re-ACK edge). *)
  (match step C.Time_wait C.Ev_tw_fin with
  | s', outs when s' = C.Time_wait && outs <> [] && List.mem C.Time_wait !reachable ->
      pf "  \"TIME_WAIT\" -> \"TIME_WAIT\" [label=\"tw_fin / %s\"];\n"
        (String.concat "," (List.map C.output_name outs))
  | _ -> ());
  pf "}\n";
  Buffer.contents buf
