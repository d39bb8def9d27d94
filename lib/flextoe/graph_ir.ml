(* --- Types (documented in graph_ir.mli) ------------------------------- *)

type capacity = Bounded of int | Unbounded

type overflow = Backpressure | Drop of string | Reject

type bound =
  | Const of int
  | Tokens of string
  | Cap of string
  | Sum of bound list
  | Unbounded_by of string

type node = {
  n_name : string;
  n_contract : Effects.contract;
  n_slots : int;
  n_serialized_writes : bool;
}

type edge_kind =
  | Dataflow of { df_ordered : bool }
  | Queue of {
      q_capacity : capacity;
      q_overflow : overflow;
      q_batch : int;
      q_bound : bound;
    }
  | Credit of { cr_tokens : int }

type edge = {
  e_src : string;
  e_dst : string;
  e_label : string;
  e_kind : edge_kind;
  e_drain : string option;
}

type t = { g_name : string; g_nodes : node list; g_edges : edge list }

(* --- Accessors -------------------------------------------------------- *)

let find_edge g label = List.find_opt (fun e -> e.e_label = label) g.g_edges

let edge_capacity e =
  match e.e_kind with Queue q -> Some q.q_capacity | _ -> None

let edge_tokens e =
  match e.e_kind with Credit c -> Some c.cr_tokens | _ -> None

let is_dataflow e =
  match e.e_kind with Dataflow _ | Queue _ -> true | Credit _ -> false

let is_ordered e =
  match e.e_kind with
  | Queue _ -> true
  | Dataflow d -> d.df_ordered
  | Credit _ -> false

let is_blocking e =
  match e.e_kind with
  | Credit _ -> true
  | Queue { q_overflow = Backpressure; _ } -> true
  | Queue _ | Dataflow _ -> false

(* --- Builtin-pipeline extraction -------------------------------------- *)

(* The two pseudo-nodes [host] (libTOE + applications) and the NBI
   bracket the PCIe and wire boundaries so payload-ordering obligations
   are visible to the passes. Each node and edge is as built: a row
   built without its lock has no [Serial_conn] domain, one that
   releases it early lets its writes escape the section, an extra
   entry's accesses join the row's footprint, and a row whose hand-off
   to the next notify stage does not wait for its DMA leaves that edge
   unordered. The other contract fields stay the declared ones. The
   graph is the same at every FlexScale shard count: shards split flow
   groups over cache slices, scheduler rings and admission slices, add
   no FPC, and leave one lock table and one [rx-gro] sequencer per
   node. *)
let builtin ?(pipeline = Pipeline.builtin) ~config () =
  let open Effects in
  let open Pipeline in
  let b = Config.batch_degree config in
  let gc = config.Config.guard in
  let as_built s =
    let c = s.s_contract in
    match s.s_departure with
    | Some Lock_skipped -> { c with c_domain = Serial_none }
    | Some (Extra x) ->
        { c with c_reads = x.x_reads @ c.c_reads;
                 c_writes = x.x_writes @ c.c_writes }
    | _ -> c
  in
  let nodes =
    List.map
      (fun s ->
        {
          n_name = name s;
          n_contract = as_built s;
          n_slots = slots config s;
          n_serialized_writes =
            not (departs Lock_released_early s.s_departure);
        })
      (pipeline @ [ host ])
  in
  let waits row = not (departs No_dma_wait (departure pipeline row)) in
  let e ?drain src dst label kind =
    { e_src = name src; e_dst = name dst; e_label = label; e_kind = kind;
      e_drain = drain }
  in
  let flow ?(ordered = true) src dst label =
    e src dst label (Dataflow { df_ordered = ordered })
  in
  let edges =
    [
      (* RX: wire → NBI buffer pool → preproc → flow-group sequencer
         (GRO) → protocol → postproc → payload DMA → notify. *)
      e nbi preproc "nbi-pool"
        (Queue
           {
             q_capacity = Bounded Nfp.Params.seg_buffers;
             q_overflow = Drop "tail-drop at the NBI segment-buffer pool";
             q_batch = 1;
             q_bound = Cap "nbi-pool";
           });
      (* The rx-gro sequencer's reorder buffer is unbounded in code;
         the bounds pass proves its occupancy is capped by the NBI
         pool (every queued summary pins a segment buffer). *)
      e preproc gro "rx-gro"
        (Queue
           {
             q_capacity = Unbounded;
             q_overflow = Reject;
             q_batch = b;
             q_bound = Cap "nbi-pool";
           });
      flow gro protocol "rx-proto";
      flow protocol postproc "rx-post";
      flow postproc dma "payload-dma";
      (* The PCIe DMA engine: per-queue in-flight window; issuing
         blocks when full, completions are unconditional and FIFO. *)
      e dma dma (serial_queue dma)
        ~drain:"PCIe completions are unconditional and FIFO per queue"
        (Credit { cr_tokens = Nfp.Params.dma_inflight });
      (* Notification + ACK leave only after the payload DMA lands,
         and reach the host only after the descriptor DMA: ordered
         edges, unless the row hands off without waiting. *)
      flow ~ordered:(waits dma) dma ctx (serial_queue ctx);
      e ctx ctx "arx-accum"
        ~drain:"batch_delay timer flushes partial batches"
        (Queue
           {
             q_capacity = Bounded b;
             q_overflow = Reject;
             q_batch = b;
             q_bound = Const b;
           });
      flow ~ordered:(waits ctx) ctx host "arx-notify";
      (* Control-path frames to the CP: unguarded they are bounded
         only by the NBI pool; FlexGuard bounds them explicitly and
         names the shed policy. *)
      e nbi host "cp-queue"
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
      e host ctx "atx"
        (Queue
           {
             q_capacity = Bounded atx_slots;
             q_overflow = Backpressure;
             q_batch = b;
             q_bound = Cap "atx";
           });
      e ctx protocol "hc-pool" (Credit { cr_tokens = hc_descs });
      flow ctx protocol "hc-dispatch";
      flow ~ordered:false sched preproc "tx-dispatch";
      e sched nbi "seg-credits" (Credit { cr_tokens = seg_credits });
      flow ~ordered:false postproc sched "sched-update";
      (* TX reorder at the NBI: data descriptors are credit-gated,
         ACK egress is pinned to RX segments in flight. *)
      e dma nbi "tx-gro"
        (Queue
           {
             q_capacity = Unbounded;
             q_overflow = Reject;
             q_batch = b;
             q_bound = Sum [ Tokens "seg-credits"; Cap "nbi-pool" ];
           });
    ]
  in
  { g_name = "flextoe-builtin"; g_nodes = nodes; g_edges = edges }

(* --- DOT export ------------------------------------------------------- *)

let dot_escape s =
  String.concat "\\\"" (String.split_on_char '"' s)

let bound_to_string b =
  let rec go = function
    | Const n -> string_of_int n
    | Tokens l -> "tokens(" ^ l ^ ")"
    | Cap l -> "cap(" ^ l ^ ")"
    | Sum bs -> "(" ^ String.concat " + " (List.map go bs) ^ ")"
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
      pf "  \"%s\" [label=\"%s\\n%s | slots=%d%s\"];\n" n.n_name
        n.n_name d n.n_slots
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
      pf "  \"%s\" -> \"%s\" [label=\"%s\", style=%s%s];\n" e.e_src e.e_dst
        (dot_escape label) style
        (match e.e_drain with
        | Some _ -> ", color=darkgreen"
        | None -> ""))
    g.g_edges;
  pf "}\n";
  Buffer.contents buf
