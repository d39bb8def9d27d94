(** FlexProve graph IR: an explicit typed model of the datapath.

    The datapath's safety argument lives in its wiring — which stages
    exist, what serializes them, which queues sit between them, which
    credits gate them. [Datapath.create] builds that wiring
    imperatively; this module states it as data so the FlexProve
    passes ({!Prove}) can check an *arbitrary* stage graph, not just
    the built-in one: whole-graph interference, deadlock freedom in
    the credit/backpressure graph, and worst-case queue occupancy
    against configured capacities.

    {!builtin} is the extraction of the built-in pipeline: it mirrors
    the as-built wiring of [datapath.ml] (including, on request, a
    seeded {!Defect.t}, so `flexlint graph` can classify each defect
    as statically caught or dynamic-only). Capacities, batch
    degrees and guard bounds come from {!Config.t}, never from
    constants of their own. *)

(* --- Types ----------------------------------------------------------- *)

type capacity = Bounded of int | Unbounded

(** What happens when a queue is offered more than it can hold.
    [Backpressure] blocks the producer (safe for occupancy, feeds the
    deadlock pass); [Drop] sheds by a named policy (safe by design);
    [Reject] means overflow would be a bug — the bounds pass must
    prove worst-case occupancy fits the capacity. *)
type overflow = Backpressure | Drop of string | Reject

(** Worst-case-occupancy expressions, evaluated by the bounds pass
    against the graph itself: [Slots s] is stage [s]'s concurrent
    execution slots, [Tokens l] / [Cap l] the token count / capacity
    of the edge labelled [l]. [Unbounded_by s] declares open-loop
    inflow limited only by [s] — never acceptable on a [Reject]
    queue. *)
type bound =
  | Const of int
  | Slots of string
  | Tokens of string
  | Cap of string
  | Sum of bound list
  | Prod of bound list
  | Min_of of bound list
  | Unbounded_by of string

(** Logical-process assignment for the parallel simulator's
    partition: which LP a stage's executions live on. Per-flow-group
    stages carry the island class [Lp_island g]; the graph's stage
    nodes aggregate the per-group replicas, so the builtin extraction
    uses the representative index 0 — two [Lp_island] stage nodes are
    co-located exactly when flow-group steering keeps a segment's
    processing inside one island, which is what the shared index
    asserts. Service-island hardware (GRO sequencer, DMA, context
    queues, scheduler, NBI) is [Lp_service]; libTOE and the
    applications are [Lp_host]. *)
type lp = Lp_host | Lp_service | Lp_island of int

let lp_name = function
  | Lp_host -> "host"
  | Lp_service -> "service"
  | Lp_island g -> "island" ^ string_of_int g

type node = {
  n_name : string;
  n_contract : Effects.contract;
  n_slots : int;  (** Concurrent execution slots (replicas × threads). *)
  n_serialized_writes : bool;
      (** Writes happen inside the serialization domain's critical
          section; [false] models an early-release defect. *)
  n_lp : lp;  (** Logical process this stage's executions live on. *)
}

type edge_kind =
  | Dataflow of { df_ordered : bool }
      (** Work handed downstream; [df_ordered] = the hand-off
          preserves completion order (FIFO / sequencer / waits for
          DMA completion). *)
  | Queue of {
      q_capacity : capacity;
      q_overflow : overflow;
      q_batch : int;  (** Units coalesced per hand-off. *)
      q_bound : bound;  (** Worst-case occupancy. *)
    }
  | Credit of { cr_tokens : int }
      (** Backpressure loop: [src]'s execution is gated on tokens
          that only [dst]'s progress returns. *)

type edge = {
  e_src : string;
  e_dst : string;
  e_label : string;
  e_kind : edge_kind;
  e_drain : string option;
      (** For blocking edges (credits, backpressured queues): why the
          block always clears without help from the blocked side
          (timer flush, unconditional completion). [None] = clearing
          needs the far side to make progress — such an edge cannot
          break a deadlock cycle. *)
  e_lookahead : Sim.Time.t;
      (** Minimum hand-off latency of this edge: the conservative
          parallel simulator may claim it as lookahead on the channel
          realizing the edge. Must be positive on every cross-LP edge
          (the partition pass checks this); [Sim.Time.zero] is fine —
          and expected — on edges whose endpoints share an LP. *)
}

type t = { g_name : string; g_nodes : node list; g_edges : edge list }

(* --- Accessors -------------------------------------------------------- *)

let find_node g name = List.find_opt (fun n -> n.n_name = name) g.g_nodes
let find_edge g label = List.find_opt (fun e -> e.e_label = label) g.g_edges

let edge_capacity e =
  match e.e_kind with Queue q -> Some q.q_capacity | _ -> None

let edge_tokens e =
  match e.e_kind with Credit c -> Some c.cr_tokens | _ -> None

(** Edges a unit of work actually travels (queues and dataflow, not
    credit returns), used for ordering-path searches. *)
let is_dataflow e =
  match e.e_kind with Dataflow _ | Queue _ -> true | Credit _ -> false

(** Does the edge preserve per-flow completion order? Queues are FIFO
    by construction; dataflow edges declare it. *)
let is_ordered e =
  match e.e_kind with
  | Queue _ -> true
  | Dataflow d -> d.df_ordered
  | Credit _ -> false

(** Blocking edges: the source can stall until the far side clears
    them. These form the wait-for graph of the deadlock pass. *)
let is_blocking e =
  match e.e_kind with
  | Credit _ -> true
  | Queue { q_overflow = Backpressure; _ } -> true
  | Queue _ | Dataflow _ -> false

(** The LPs of an edge's endpoints, when both resolve. *)
let edge_lps g e =
  match (find_node g e.e_src, find_node g e.e_dst) with
  | Some a, Some b -> Some (a.n_lp, b.n_lp)
  | _ -> None

(** Does the edge cross an LP boundary? [false] when an endpoint is
    missing (well-formedness reports that separately). *)
let is_cross_lp g e =
  match edge_lps g e with Some (a, b) -> a <> b | None -> false

(* --- Builtin-pipeline extraction -------------------------------------- *)

(* The extraction mirrors [Datapath.create]'s wiring: same stage set
   and serialization domains as [Datapath.builtin_contracts], queue
   capacities from the same sources (Nfp.Params for the NBI pool and
   DMA in-flight window, the 512-slot ATX rings, the 128-descriptor HC
   pool, [min 256 seg_buffers] scheduler credits), the batch degree
   from [Config.batch_degree] and the CP-queue bound from
   [Config.guard]. The two pseudo-nodes [host] (libTOE +
   applications) and the NBI bracket the PCIe and wire boundaries so
   payload-ordering obligations are visible to the passes. A seeded [defect] that changes the as-built
   wiring or footprints patches the graph; the notify-ordering and
   steering defects leave the declared wiring intact
   ({!Defect.dynamic_only}). *)
let builtin ?defect ~config ~contracts () =
  let open Effects in
  let p = config.Config.params in
  let par = config.Config.parallelism in
  let b = Config.batch_degree config in
  let gc = config.Config.guard in
  let threads = Int.max 1 par.Config.fpc_threads in
  let groups = Int.max 1 par.Config.flow_groups in
  let contract name =
    match List.find_opt (fun c -> c.c_stage = name) contracts with
    | Some c -> c
    | None ->
        invalid_arg ("Graph_ir.builtin: no contract for stage " ^ name)
  in
  let patch name c =
    match (name, defect) with
    | "protocol", Some Defect.No_lock -> { c with c_domain = Serial_none }
    | "preproc", Some Defect.Preproc_reads_proto ->
        { c with c_reads = Conn_proto :: c.c_reads }
    | "postproc", Some Defect.Postproc_writes_conn ->
        { c with c_writes = Conn_proto :: c.c_writes }
    | _ -> c
  in
  let node ?(serialized = true) name lp slots =
    {
      n_name = name;
      n_contract = patch name (contract name);
      n_slots = slots;
      n_serialized_writes = serialized;
      n_lp = lp;
    }
  in
  let host =
    (* libTOE + applications: drains notifications and Rx payload,
       fills Tx payload, rings ATX doorbells. Descriptor rings are
       single-producer/single-consumer per side (atomic region). *)
    {
      n_name = "host";
      n_contract =
        {
          c_stage = "host";
          c_reads = [ Rx_payload; Desc_ring ];
          c_writes = [ Tx_payload; Desc_ring ];
          c_domain = Serial_none;
        };
      n_slots = 4;
      n_serialized_writes = true;
      n_lp = Lp_host;
    }
  in
  (* Per-flow-group pipeline stages share the representative island
     LP (flow-group steering keeps a segment inside one island);
     service-island hardware lives on the service LP. Mirrors
     [Datapath.fpc_pools]: preproc/protocol/postproc carry an island
     index there, gro/dma/ctx/sched carry -1. *)
  let nodes =
    [
      node "preproc" (Lp_island 0)
        (Int.max 1 (par.Config.preproc_replicas * groups) * threads);
      node "gro" Lp_service threads;
      node "protocol" (Lp_island 0)
        ~serialized:(not (Defect.is defect Defect.Early_release))
        (Int.max 1 par.Config.proto_replicas * groups * threads);
      node "postproc" (Lp_island 0)
        (Int.max 1 (par.Config.postproc_replicas * groups) * threads);
      node "dma" Lp_service (Int.max 1 par.Config.dma_replicas * threads);
      node "ctx" Lp_service (Int.max 1 par.Config.ctx_replicas * threads);
      node "sched" Lp_service threads;
      node "nbi" Lp_service 1;
      host;
    ]
  in
  (* Cross-LP hand-off latencies, claimable as lookahead: an island
     boundary costs at least one distributed-switch push into the
     neighbour's CTM; host-bound notifications ride a PCIe
     transaction; host doorbells a posted MMIO write. *)
  let island_hop =
    Sim.Time.Freq.cycles p.Nfp.Params.fpc_freq p.Nfp.Params.island_hop_cycles
  in
  let e ?drain ?(lookahead = Sim.Time.zero) src dst label kind =
    { e_src = src; e_dst = dst; e_label = label; e_kind = kind;
      e_drain = drain; e_lookahead = lookahead }
  in
  let flow ?(ordered = true) ?lookahead src dst label =
    e ?lookahead src dst label (Dataflow { df_ordered = ordered })
  in
  let seg_credits = Int.min 256 p.Nfp.Params.seg_buffers in
  let edges =
    [
      (* RX: wire → NBI buffer pool → preproc → flow-group sequencer
         (GRO) → protocol → postproc → payload DMA → notify. *)
      e "nbi" "preproc" "nbi-pool" ~lookahead:island_hop
        (Queue
           {
             q_capacity = Bounded p.Nfp.Params.seg_buffers;
             q_overflow = Drop "tail-drop at the NBI segment-buffer pool";
             q_batch = 1;
             q_bound = Cap "nbi-pool";
           });
      (* The rx-gro sequencer's reorder buffer is unbounded in code;
         the bounds pass proves its occupancy is capped by the NBI
         pool (every queued summary pins a segment buffer). *)
      e "preproc" "gro" "rx-gro" ~lookahead:island_hop
        (Queue
           {
             q_capacity = Unbounded;
             q_overflow = Reject;
             q_batch = b;
             q_bound = Cap "nbi-pool";
           });
      flow "gro" "protocol" "rx-proto" ~lookahead:island_hop;
      flow "protocol" "postproc" "rx-post";
      flow "postproc" "dma" "payload-dma" ~lookahead:island_hop;
      (* The PCIe DMA engine: per-queue in-flight window; issuing
         blocks when full, completions are unconditional and FIFO. *)
      e "dma" "dma" "pcie-dma"
        ~drain:"PCIe completions are unconditional and FIFO per queue"
        (Credit { cr_tokens = p.Nfp.Params.dma_inflight });
      (* Notification + ACK leave only after the payload DMA lands:
         this ordered edge is the declared obligation the
         Notify_before_payload / Skip_notify_dma defects violate at
         runtime (the declaration stays intact — dynamic-only). *)
      flow "dma" "ctx" "ctx";
      e "ctx" "ctx" "arx-accum"
        ~drain:"batch_delay timer flushes partial batches"
        (Queue
           {
             q_capacity = Bounded b;
             q_overflow = Reject;
             q_batch = b;
             q_bound = Const b;
           });
      flow "ctx" "host" "arx-notify"
        ~lookahead:p.Nfp.Params.pcie_base_latency;
      (* Control-path frames to the CP: unguarded they are bounded
         only by the NBI pool; FlexGuard bounds them explicitly and
         names the shed policy. *)
      e "nbi" "host" "cp-queue" ~lookahead:p.Nfp.Params.pcie_base_latency
        (Queue
           {
             q_capacity =
               (if gc.Config.g_on && gc.Config.g_cp_queue > 0 then
                  Bounded gc.Config.g_cp_queue
                else Unbounded);
             q_overflow =
               (if gc.Config.g_on && gc.Config.g_cp_queue > 0 then
                  Drop "newest SYNs first, never established-flow segments"
                else Reject);
             q_batch = 1;
             q_bound = Cap "nbi-pool";
           });
      (* TX / HC: ATX doorbells → ctx drain (gated by the HC
         descriptor pool) → protocol → scheduler dispatch. *)
      e "host" "ctx" "atx" ~lookahead:p.Nfp.Params.mmio_latency
        (Queue
           {
             q_capacity = Bounded 512;
             q_overflow = Backpressure;
             q_batch = b;
             q_bound = Cap "atx";
           });
      e "ctx" "protocol" "hc-pool" ~lookahead:island_hop
        (Credit { cr_tokens = 128 });
      flow "ctx" "protocol" "hc-dispatch" ~lookahead:island_hop;
      flow ~ordered:false "sched" "preproc" "tx-dispatch"
        ~lookahead:island_hop;
      e "sched" "nbi" "seg-credits" (Credit { cr_tokens = seg_credits });
      flow ~ordered:false "postproc" "sched" "sched-update"
        ~lookahead:island_hop;
      (* TX reorder at the NBI: data descriptors are credit-gated,
         ACK egress is pinned to RX segments in flight. *)
      e "dma" "nbi" "tx-gro"
        (Queue
           {
             q_capacity = Unbounded;
             q_overflow = Reject;
             q_batch = b;
             q_bound = Sum [ Tokens "seg-credits"; Cap "nbi-pool" ];
           });
    ]
  in
  (* FlexScale: replicate the per-flow-group stages across shard
     islands. Each shard k gets its own copy of preproc/protocol/
     postproc on [Lp_island k] (slots split evenly, rounded up) and
     its own copies of every edge touching a sharded endpoint; edges
     whose endpoints are both sharded pair same-k, because flow-group
     steering keeps a segment inside one shard end to end. Shard 0
     keeps the unsuffixed names and labels so bound expressions
     ([Cap "nbi-pool"]) and serialization-domain realization
     ([Serial_flow_group "rx-gro"]) keep resolving; replicas append
     ["#k"], which {!Prove}'s sharding pass parses back into replica
     families. At one shard the graph is exactly the unsharded one. *)
  let shards = Flow_group.shards_of config.Config.scale in
  let nodes, edges =
    if shards <= 1 then (nodes, edges)
    else begin
      let sharded = [ "preproc"; "protocol"; "postproc" ] in
      let is_sharded name = List.mem name sharded in
      let suffix name k =
        if k = 0 then name else name ^ "#" ^ string_of_int k
      in
      let nodes =
        List.concat_map
          (fun n ->
            if is_sharded n.n_name then
              List.init shards (fun k ->
                  {
                    n with
                    n_name = suffix n.n_name k;
                    n_lp = Lp_island k;
                    n_slots = Int.max 1 ((n.n_slots + shards - 1) / shards);
                  })
            else [ n ])
          nodes
      in
      let edges =
        List.concat_map
          (fun e ->
            let ss = is_sharded e.e_src and sd = is_sharded e.e_dst in
            if not (ss || sd) then [ e ]
            else
              List.init shards (fun k ->
                  {
                    e with
                    e_src = (if ss then suffix e.e_src k else e.e_src);
                    e_dst = (if sd then suffix e.e_dst k else e.e_dst);
                    e_label = suffix e.e_label k;
                  }))
          edges
      in
      (nodes, edges)
    end
  in
  { g_name = "flextoe-builtin"; g_nodes = nodes; g_edges = edges }

(* --- DOT export ------------------------------------------------------- *)

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let bound_to_string b =
  let rec go = function
    | Const n -> string_of_int n
    | Slots s -> "slots(" ^ s ^ ")"
    | Tokens l -> "tokens(" ^ l ^ ")"
    | Cap l -> "cap(" ^ l ^ ")"
    | Sum bs -> "(" ^ String.concat " + " (List.map go bs) ^ ")"
    | Prod bs -> "(" ^ String.concat " * " (List.map go bs) ^ ")"
    | Min_of bs -> "min(" ^ String.concat ", " (List.map go bs) ^ ")"
    | Unbounded_by s -> "unbounded-by:" ^ s
  in
  go b

let capacity_to_string = function
  | Bounded n -> string_of_int n
  | Unbounded -> "∞"

let to_dot g =
  let buf = Buffer.create 4096 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "digraph \"%s\" {\n" (dot_escape g.g_name);
  pf "  rankdir=LR;\n  node [shape=box, fontname=\"monospace\"];\n";
  List.iter
    (fun n ->
      let d = Effects.domain_name n.n_contract.Effects.c_domain in
      pf "  \"%s\" [label=\"%s\\n%s | slots=%d | lp=%s%s\"];\n" n.n_name
        n.n_name d n.n_slots (lp_name n.n_lp)
        (if n.n_serialized_writes then "" else " | EARLY-RELEASE"))
    g.g_nodes;
  List.iter
    (fun e ->
      let label, style =
        match e.e_kind with
        | Dataflow d ->
            ( Printf.sprintf "%s%s" e.e_label
                (if d.df_ordered then " [ord]" else ""),
              "solid" )
        | Queue q ->
            ( Printf.sprintf "%s cap=%s batch=%d" e.e_label
                (capacity_to_string q.q_capacity)
                q.q_batch,
              "bold" )
        | Credit c ->
            (Printf.sprintf "%s credits=%d" e.e_label c.cr_tokens, "dashed")
      in
      let label =
        if e.e_lookahead > Sim.Time.zero then
          Format.asprintf "%s la=%a" label Sim.Time.pp e.e_lookahead
        else label
      in
      pf "  \"%s\" -> \"%s\" [label=\"%s\", style=%s%s];\n" e.e_src e.e_dst
        (dot_escape label) style
        (match e.e_drain with
        | Some _ -> ", color=darkgreen"
        | None -> ""))
    g.g_edges;
  pf "}\n";
  Buffer.contents buf
