(** The seeded-race corpus: one catalogue of the deliberate
    synchronization defects a datapath can be built with, and of which
    checker owns each.

    Each defect is a variant of the pipeline table ({!pipeline}), not a
    branch in the datapath: one row is built otherwise than it declares
    ({!Pipeline.departure}), or (for [Bad_contract]) declares otherwise.
    Each removes or reorders exactly one ordering edge, or changes one
    footprint. All of them preserve the simulated TCP behavior: the
    simulator is single-threaded, so the races they open are visible
    only to the checkers, exactly like a latent race on real silicon.
    The checkers are FlexProve over the variant's as-built graph
    ([Graph_ir.builtin ~pipeline]) and, at [Datapath.create], over its
    declared one, FlexInfer over the sources its stage map names
    ([Infer.infer_repo_diff ~pipeline]), and FlexSan's happens-before
    layer at runtime. Every defect is caught by at least one of them; a
    static analyzer that cannot see a defect says why ({!dynamic_only}). *)

type t =
  | No_lock
  | Early_release
  | Notify_before_payload
  | Skip_notify_dma
  | Postproc_writes_conn
  | Preproc_reads_proto
  | Bad_contract
  | Mis_steer

val all : t list
(** Every defect, in corpus order. *)

val name : t -> string
(** The CLI and report spelling ([flexlint san --seeded NAME]); the
    constructor name with a lower-case initial. *)

val of_name : string -> t option

val doc : t -> string
(** What the defect breaks, in one line. *)

val pipeline : t -> Pipeline.t
(** {!Pipeline.builtin} with the one row {!row} names changed: a node
    built from it ([Datapath.create ~pipeline]) carries the defect. *)

val row : t -> string

(** The static analyzers that classify the corpus. *)
type analyzer =
  | Flexprove  (** whole-graph passes over [Graph_ir.builtin ~pipeline] *)
  | Flexinfer  (** source footprints diffed against the contracts *)

val dynamic_only : analyzer -> t -> string option
(** [None] when the analyzer catches the defect; otherwise the
    rationale for why no analysis of its input can, naming the checker
    that owns the defect instead. *)

val rejected_at_create : t -> bool
(** FlexProve rejects the graph of the declared rows at
    [Datapath.create] (only [Bad_contract]); every other defect builds
    and FlexSan reports it at runtime. *)
