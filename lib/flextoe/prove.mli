(** FlexProve: whole-graph static analysis of the datapath.

    Three graph passes over the {!Graph_ir} — whole-graph interference
    of the stages' {!Effects} contracts, deadlock freedom of the
    credit/backpressure wait-for graph, and worst-case queue occupancy
    against configured capacities — plus an exhaustive model check of
    the shared teardown transition table ({!Conn_state.step}) against
    an RFC-793/6191 spec. The graph has one node per pipeline row at
    every FlexScale shard count, so a node's slots are all the FPC
    threads of its stage and the interference pass's self-pair check
    covers them all.

    [Datapath.create] runs the graph passes once per node, over the
    graph of its declared contracts, as its one static check, and
    raises {!Graph_rejected} on any finding, so an unsound composition
    fails before any FPC is wired — at zero per-segment cost.
    [flexlint graph] and [flexlint fsm] expose all four checks
    offline. *)

type finding = { f_pass : string; f_subject : string; f_detail : string }

type report = {
  r_pass : string;
  r_notes : string list;  (** What was proven, for the OK lines. *)
  r_findings : finding list;  (** Empty = the pass holds. *)
}

val finding_to_string : finding -> string

exception Graph_rejected of finding list

val interference : Graph_ir.t -> report
(** May-happen-in-parallel pairs (serialization domains × slot counts,
    including stage-vs-itself replica races and early-release defects)
    footprint-checked: a write may meet no read or write of the same
    region unless the region is atomic or address-partitioned, and
    each conflict is reported with {!Effects.conflict_to_string}. A
    stage with one slot cannot race itself. Every named
    serialization domain must be realized by an edge of the graph; and
    every address-partitioned ([r_disjoint]) region hand-off must be
    covered by an ordered dataflow path from writer to reader. *)

val deadlock : Graph_ir.t -> report
(** Every cycle of blocking edges (credits, backpressured queues) must
    contain an edge with a drain guarantee; reported cycles name the
    nodes and edge labels on the cycle. *)

val bounds : Graph_ir.t -> report
(** Every [Reject]-overflow queue needs a provable worst-case
    occupancy — finite, and within capacity when the capacity is
    bounded. Findings name the overflowing edge and the bound that
    exceeded it. *)

val check_graph : Graph_ir.t -> (report list, finding list) result
(** The three graph passes (interference, deadlock, bounds); [Error]
    carries every finding. *)

(** {1 Teardown FSM model check} *)

type fsm_step =
  guard:bool ->
  Conn_state.lifecycle ->
  Conn_state.close_event ->
  Conn_state.lifecycle * Conn_state.close_output list

type fsm_counterexample = {
  fc_path : (Conn_state.lifecycle * Conn_state.close_event) list;
      (** Shortest event path from ESTABLISHED to [fc_state]. *)
  fc_state : Conn_state.lifecycle;  (** The state where the spec breaks. *)
  fc_msg : string;
}

val counterexample_to_string : fsm_counterexample -> string

val check_fsm :
  ?step:fsm_step ->
  guard:bool ->
  unit ->
  (string list, fsm_counterexample) result
(** Model-checks [step] (default {!Conn_state.step}) against the
    teardown spec in one of the two modes the control plane builds
    (guard off; guard on, which holds TIME_WAIT): no dead states among
    the mode's lifecycle states, TIME_WAIT unreachable unless
    [guard], no
    transition reopens a closed direction, RECLAIMED absorbing and
    silent, TIME_WAIT entered only by tearing down a fully-closed
    flow, a retransmitted peer FIN into TIME_WAIT re-ACKed (RFC 793
    §3.9), the idle reaper exempts ESTABLISHED and CLOSE_WAIT, and
    liveness: every closing state reaches RECLAIMED — through local
    (timer/poll) events alone when [guard] is on, through some event
    sequence otherwise. [Ok] carries human-readable notes; [Error]
    carries a path-to-violation counterexample. *)

val fsm_mutations : (string * fsm_step) list
(** Seeded single-transition mutations of {!Conn_state.step} — each
    must be rejected by {!check_fsm} in at least one guard mode;
    the checker's own negative test suite ([flexlint fsm --mutate]). *)

val fsm_dot : ?step:fsm_step -> guard:bool -> unit -> string
(** Graphviz rendering of the reachable transition graph, edges
    labelled [event / outputs]. *)
