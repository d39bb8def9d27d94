(** The built-in FlexTOE pipeline, declared once (§3, Table 2).

    One row per stage: its effect contract (whose [c_stage] is the
    stage's name), what executes it (an FPC pool sized from
    {!Config.t}, or a fixed number of non-FPC units), where it sits,
    its entry functions in [datapath.ml] and its tracepoints. The
    shared edge constants sit beside the rows. Everything else is a
    projection of this table: [Datapath.create]'s FPC pools, ring,
    descriptor-pool and scheduler capacities and tracepoint registry,
    the FlexProve graph ({!Graph_ir.builtin}) that [create] checks,
    and FlexInfer's stage map. The datapath runs every stage execution
    from its row, which names its tracepoint group, FlexScope span and
    FlexSan label.

    A row also says where it is built otherwise than it declares
    ({!departure}): no builtin row is, a seeded race ({!Defect}) is. *)

(** Where a row's executions sit: [Islands], once per flow group on
    the general-purpose islands, which flow-group steering keeps a
    segment's processing inside (and FlexScale replicates per shard);
    [Service], once on the service island (GRO sequencer, DMA, context
    queues, scheduler, NBI), or on the host for the [host] row. *)
type place = Islands | Service

type pool = {
  p_name : string;  (** [Datapath.fpc_pools] name (perfbench's [nfp.*] keys). *)
  p_prefix : string;  (** FPC names are the prefix and an index. *)
  p_replicas : Config.parallelism -> int;
      (** FPCs per flow group on an island, or in all on the service
          island; at least one is built. *)
  p_striped : bool;
      (** Island pools: number the FPCs of all groups from 0, group [g]
          owning the [g]-th slice; otherwise group [g]'s FPC [i] is
          number [10g + i]. *)
}

(** What executes a stage: an FPC pool of [fpc_threads]-thread FPCs,
    or a fixed number of execution units that are not FPCs. *)
type exec = Fpcs of pool | Units of int

(** Accesses a row makes beyond its stage body: [x_run] runs in the
    stage on the work's connection, reporting each through [access].
    FlexInfer analyzes [x_entry] ("Module.fn") with the stage's
    entries; [x_reads]/[x_writes] are its as-built footprint. *)
type extra = {
  x_entry : string;
  x_reads : Effects.obj list;
  x_writes : Effects.obj list;
  x_run : access:(Effects.obj -> Effects.kind -> unit) -> Conn_state.t -> unit;
}

(** How a row is built otherwise than it declares: [protocol] without
    its per-connection lock, releasing it before the critical section,
    or with a steering function (a connection's flow group, given its
    pinned one); [preproc] or [postproc] with an extra access; [dma]
    passing an RX verdict's notification and ACK on before its payload
    DMA lands, or [ctx] a notification before its descriptor DMA. *)
type departure =
  | Lock_skipped
  | Lock_released_early
  | Steer of (conn:int -> fg:int -> groups:int -> int)
  | Extra of extra
  | No_dma_wait

type stage = {
  s_contract : Effects.contract;  (** The stage's declaration. *)
  s_exec : exec;
  s_place : place;
  s_entries : string list;
      (** Functions in [datapath.ml] that FlexInfer analyzes as the
          stage body. *)
  s_points : string list;
      (** The stage's tracepoints (§5.1), in the group named after the
          stage: each enabled one costs every execution [tracepoint]
          cycles. *)
  s_departure : departure option;  (** [None]: built as declared. *)
}

type t = stage list

let name s = s.s_contract.Effects.c_stage

let row name ~reads ~writes ?(points = []) domain exec place entries =
  {
    s_contract =
      { Effects.c_stage = name; c_reads = reads; c_writes = writes;
        c_domain = domain };
    s_exec = exec name;
    s_place = place;
    s_entries = entries;
    s_points = points;
    s_departure = None;
  }

(* A pool named after its stage and FPCs named after their pool, unless
   [name] or [prefix] says otherwise. *)
let fpc_pool ?(striped = false) ?name ?prefix replicas stage =
  let p_name = Option.value name ~default:stage in
  { p_name; p_prefix = Option.value prefix ~default:p_name;
    p_replicas = replicas; p_striped = striped }

let pool ?striped ?name ?prefix replicas stage =
  Fpcs (fpc_pool ?striped ?name ?prefix replicas stage)

let units n (_ : string) = Units n

(* Which memory each stage may touch, under which serialization
   discipline: §3.2's disjointness argument over Table 5's memory map. *)
open Effects

let preproc =
  row "preproc" ~reads:[ Conn_db ] ~writes:[ Global_stats ] Serial_none
    ~points:[ "seg_valid"; "seg_invalid"; "conn_hit"; "conn_miss"; "steer";
              "ctl_fwd" ]
    (pool ~striped:true ~prefix:"pre" (fun p -> p.Config.preproc_replicas))
    Islands
    [ "rx_frame"; "rx_datapath"; "guard_shed_rx"; "preproc_rx";
      "forward_to_control" ]

let gro =
  row "gro" ~reads:[] ~writes:[] (Serial_flow_group "rx-gro")
    ~points:[ "in_order"; "reordered"; "queue_occupancy"; "released" ]
    (pool (fun _ -> 1)) Service
    [ "gro_release"; "gro_flush"; "gro_submit" ]

(* Global_stats: the FlexScale steering self-check counter
   (st_cross_shard) is bumped from protocol-stage state accesses; the
   region is atomic, so the declaration costs no static freedom. *)
let protocol =
  row "protocol"
    ~reads:[ Conn_db; Conn_pre; Conn_proto; Reasm; Conn_post ]
    ~writes:[ Conn_proto; Reasm; Sched_state; Global_stats ] Serial_conn
    ~points:[ "rx_seg"; "tx_seg"; "hc_op"; "ooo_seg"; "dup_ack"; "fast_retx";
              "win_update"; "fin"; "crit_section"; "drop_merge";
              "drop_window" ]
    (pool ~prefix:"proto" (fun p -> p.Config.proto_replicas))
    Islands
    [ "protocol_rx"; "protocol_tx"; "protocol_hc" ]

let postproc =
  row "postproc" ~reads:[ Conn_db ]
    ~writes:[ Conn_post; Global_stats; Sched_state ] Serial_none
    ~points:[ "ack_gen"; "stamp"; "stats"; "notify"; "ecn_echo" ]
    (pool ~prefix:"post" (fun p -> p.Config.postproc_replicas))
    Islands [ "postproc_stage" ]

let dma =
  row "dma" ~reads:[ Conn_db; Conn_post; Tx_payload ]
    ~writes:[ Rx_payload; Global_stats; Sched_state ]
    ~points:[ "payload_rx"; "payload_tx"; "desc"; "queue_depth" ]
    (Serial_queue "pcie-dma")
    (pool (fun _ -> 4))  (* DMA-manager FPCs on the service island *)
    Service [ "dma_stage" ]

let ctx =
  row "ctx" ~reads:[ Rx_payload; Desc_ring; Conn_db; Conn_post ]
    ~writes:[ Desc_ring ] (Serial_queue "ctx")
    ~points:[ "arx_notify"; "atx_fetch"; "doorbell"; "pool_empty" ]
    (pool (fun _ -> 4))  (* context-queue FPCs *)
    Service
    [ "notify_libtoe"; "arx_deliver"; "arx_flush"; "atx_drain";
      "atx_drain_body" ]

let sched =
  row "sched" ~reads:[ Sched_state ] ~writes:[ Sched_state ] Serial_none
    ~points:
      [ "dispatch"; "rr_pick"; "wheel_park"; "wheel_fire"; "credit_stall" ]
    (pool ~name:"sch" (fun _ -> 1)) Service [ "dispatch_tx" ]

let nbi =
  row "nbi" ~reads:[ Conn_pre; Conn_db ] ~writes:[ Global_stats; Sched_state ]
    ~points:[ "rx_frame"; "tx_frame"; "tx_ack"; "ctl_inject" ]
    (Serial_flow_group "tx-gro") (units 1) Service
    [ "nbi_emit"; "nbi_emit_one" ]

let builtin = [ preproc; gro; protocol; postproc; dma; ctx; sched; nbi ]

(* libTOE and the applications, a pseudo-stage of the FlexProve graph
   only: they drain notifications and Rx payload, fill Tx payload and
   ring ATX doorbells. Descriptor rings are single-producer/single-
   consumer per side (atomic region). *)
let host =
  row "host" ~reads:[ Rx_payload; Desc_ring ] ~writes:[ Tx_payload; Desc_ring ]
    Serial_none (units 4) Service []

(* The control plane's tracepoints belong to no stage: group "cp". *)
let cp_points =
  ( "cp",
    [ "retransmit"; "rate_set"; "conn_install"; "conn_remove"; "stats_read" ] )

(* The label FlexSan sees on a protocol-state access made through the
   wrong flow group's steering: a stage no row declares, so the access
   is a contract breach. *)
let shard_steer = "shard-steer"

(* XDP modules run on the islands' spare FPCs ahead of the pipeline. *)
let xdp = fpc_pool ~striped:true (fun _ -> 3) "xdp"

(* The run-to-completion baseline reuses the stage helpers but belongs
   to no stage: FlexInfer never expands these. *)
let excluded = [ "rtc_rx"; "rtc_tx"; "rtc_hc"; "rtc_pcie_sleep" ]

(* --- Shared edge constants -------------------------------------------- *)

let atx_slots = 512  (* per-context-queue ATX descriptor ring *)
let hc_descs = 128  (* host-control descriptor pool *)

(* Scheduler segment credits: one per NBI segment buffer, at most 256. *)
let seg_credits (p : Nfp.Params.t) = Int.min 256 p.Nfp.Params.seg_buffers

(* --- Projections ------------------------------------------------------ *)

(* How [t] builds [row] otherwise than declared, and whether that is
   [d], a departure without arguments. *)
let rec departure (t : t) row =
  match t with
  | [] -> None
  | s :: t -> if name s = name row then s.s_departure else departure t row

let departs d = function Some d' -> d' == d | None -> false

(* The rows as declared: every departure dropped. *)
let declared (t : t) = List.map (fun s -> { s with s_departure = None }) t

let contracts (t : t) = List.map (fun s -> s.s_contract) t

(* Each stage's entries, its extra entry's too. *)
let stage_map (t : t) =
  List.map
    (fun s ->
      ( name s,
        match s.s_departure with
        | Some (Extra x) -> s.s_entries @ [ x.x_entry ]
        | _ -> s.s_entries ))
    t

(* Every tracepoint by group: each row's, then the control plane's. *)
let trace_points (t : t) =
  List.map (fun s -> (name s, s.s_points)) t @ [ cp_points ]

(* The queue a [Serial_queue] stage serializes on. *)
let serial_queue s =
  match s.s_contract.c_domain with
  | Serial_queue q -> q
  | _ -> invalid_arg ("Pipeline.serial_queue: " ^ name s)
let threads (cfg : Config.t) = Int.max 1 cfg.Config.parallelism.Config.fpc_threads
let groups (cfg : Config.t) = Int.max 1 cfg.Config.parallelism.Config.flow_groups

(* A pool's FPC names by island: one entry per flow group on the
   islands, one entry with island -1 on the service island. *)
let fpc_names (cfg : Config.t) p place =
  let r = Int.max 1 (p.p_replicas cfg.Config.parallelism) in
  let fpc i = Array.init r (fun j -> p.p_prefix ^ string_of_int (i + j)) in
  match place with
  | Islands ->
      List.init (groups cfg) (fun g ->
          (g, fpc (if p.p_striped then g * r else g * 10)))
  | Service -> [ (-1, fpc 0) ]

(* Concurrent execution slots: FPCs × hardware threads. *)
let slots cfg s =
  match s.s_exec with
  | Units n -> n
  | Fpcs p ->
      List.fold_left (fun n (_, fpcs) -> n + Array.length fpcs) 0
        (fpc_names cfg p s.s_place)
      * threads cfg

(* The datapath implements exactly the builtin stages, and each
   departure at the rows [departure] names: a row whose contract names
   any other stage, a builtin stage with no row, two rows for one stage
   or a departure at another row is a broken table. *)
let check (t : t) =
  let names = List.map name t and known = List.map name builtin in
  let fail fmt = Printf.ksprintf invalid_arg ("Pipeline.check: " ^^ fmt) in
  List.iter
    (fun n ->
      if not (List.mem n known) then fail "row %s matches no datapath stage" n;
      if List.length (List.filter (String.equal n) names) > 1 then
        fail "two rows for stage %s" n)
    names;
  List.iter
    (fun s ->
      match (s.s_departure, name s) with
      | Some (Lock_skipped | Lock_released_early | Steer _), "protocol"
      | Some (Extra _), ("preproc" | "postproc")
      | Some No_dma_wait, ("dma" | "ctx")
      | None, _ -> ()
      | Some _, n -> fail "row %s cannot be built with its departure" n)
    t;
  List.iter
    (fun n -> if not (List.mem n names) then fail "no row for stage %s" n)
    known
