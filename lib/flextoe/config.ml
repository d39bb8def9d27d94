type parallelism = {
  pipelined : bool;
  fpc_threads : int;
  preproc_replicas : int;
  postproc_replicas : int;
  proto_replicas : int;
  flow_groups : int;
}

(** FlexGuard: overload control and graceful degradation under
    connection churn. Everything is off by default ([guard_none]) —
    the guarded code paths are never entered and no extra engine
    events are scheduled, keeping default-config runs bit-identical
    to the unguarded pipeline. The mechanisms' fixed limits are
    [Guard]'s constants. *)
type guard = {
  g_on : bool;  (** Master enable; false = all mechanisms dormant. *)
  g_cp_queue : int;
      (** Bound on control-path frames in flight to the CP; beyond it
          the NBI sheds newest SYNs first (never established-flow
          segments). 0 = unbounded. *)
}

let guard_none = { g_on = false; g_cp_queue = 0 }
let guard_default = { g_on = true; g_cp_queue = 64 }

(** FlexScale: sharded flow-group pipelines (DESIGN.md §17). Off by
    default ([scale_none]) — the sharded code paths are never entered
    and behavior is bit-identical to the single-pipeline datapath.
    With [s_on] and [s_shards = 1] the sharded wiring is exercised but
    degenerates to the same single EMEM cache and steering, which the
    golden-trace gate pins bit-for-bit. *)
type scale = {
  s_on : bool;  (** Master enable; false = single-pipeline wiring. *)
  s_shards : int;
      (** Replicated protocol-stage pipelines; flow groups steer to
          shard [fg mod s_shards]. *)
  s_emem_flows : int;
      (** EMEM capacity-pressure model: connections resident before
          per-flow state overflows the cached working set and misses
          start paying the full DRAM penalty; 0 disables pressure
          accounting. *)
}

let scale_none = { s_on = false; s_shards = 1; s_emem_flows = 0 }
let scale_of n = { s_on = true; s_shards = Int.max 1 n; s_emem_flows = 0 }

type congestion_control = Dctcp | Timely | Cc_none

type scope_mode = Scope_off | Scope_metrics | Scope_full

type t = {
  parallelism : parallelism;
  rx_buf_bytes : int;
  tx_buf_bytes : int;
  delayed_acks : bool;
  cc : congestion_control;
  cc_interval : Sim.Time.t;
  san : bool;  (** Enable the FlexSan dynamic sanitizer (layer 2). *)
  scope : scope_mode;  (** FlexScope profiling (off / metrics / full). *)
  batch : int;  (** Batching degree at every boundary; see [batch_degree]. *)
  guard : guard;  (** FlexGuard overload control ([guard_none] off). *)
  scale : scale;  (** FlexScale sharding ([scale_none] off). *)
}

let t3_flow_groups =
  {
    pipelined = true;
    fpc_threads = 8;
    preproc_replicas = 4;
    postproc_replicas = 4;
    proto_replicas = 2;
    flow_groups = 4;
  }

let t3_replicated =
  { t3_flow_groups with flow_groups = 1; proto_replicas = 1 }
let t3_threads = { t3_replicated with preproc_replicas = 1;
                   postproc_replicas = 1 }
let t3_pipelined = { t3_threads with fpc_threads = 1 }
let t3_baseline = { t3_pipelined with pipelined = false }

(* FLEXSAN=1 in the environment turns the sanitizer on for every
   default-configured node — how the CI sanitizer job runs the whole
   test suite instrumented without per-test plumbing. *)
let san_env =
  match Sys.getenv_opt "FLEXSAN" with
  | Some ("1" | "on" | "true" | "yes") -> true
  | _ -> false

(* FLEXSCOPE=1 (or =full / =metrics) turns the profiler on for every
   default-configured node, mirroring FLEXSAN: an instrumented run of
   any bench or test needs no per-callsite plumbing. *)
let scope_env =
  match Sys.getenv_opt "FLEXSCOPE" with
  | Some ("1" | "on" | "true" | "yes" | "full") -> Scope_full
  | Some ("metrics" | "metrics-only") -> Scope_metrics
  | _ -> Scope_off

(* FLEXGUARD=1 arms the overload-control layer for every
   default-configured node, mirroring FLEXSAN/FLEXSCOPE: the churn CI
   job runs the whole suite guarded without per-test plumbing. *)
let guard_env =
  match Sys.getenv_opt "FLEXGUARD" with
  | Some ("1" | "on" | "true" | "yes") -> guard_default
  | _ -> guard_none

let default =
  {
    parallelism = t3_flow_groups;
    rx_buf_bytes = 256 * 1024;
    tx_buf_bytes = 256 * 1024;
    delayed_acks = false;
    cc = Dctcp;
    cc_interval = Sim.Time.us 50;
    san = san_env;
    scope = scope_env;
    batch = 1;
    guard = guard_env;
    scale = scale_none;
  }

let batch_degree t = Int.max 1 t.batch
