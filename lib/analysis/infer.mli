(** FlexInfer: source-level effect inference and wrap-safety lint.

    Closes FlexProve's trusted-contract gap: {!Prove} proves the
    pipeline interference-free over the {e declared}
    {!Effects.contract}s, and nothing — until this module — checked
    that the declarations describe what the stage code actually does.
    FlexInfer parses the real sources with compiler-libs and runs
    four analyses:

    + {b Footprint inference} over the stage entry functions in
      [datapath.ml], and a row's extra entry ({!Pipeline.extra}) in a
      helper module: a syntactic access-path walk recognizing both
      sanitizer witnesses (calls carrying literal [Effects.<Obj>] +
      [Effects.Read]/[Write] constructors) and known module
      operations on tracked values (the connection table, partition
      records, payload buffers, scheduler, ATX rings, reassembler).
      Same-file helper calls expand transitively; calls into the
      declared helper modules ([Protocol], [Control_plane], [Defect]) cross at
      most one module boundary; stage hand-offs never leak a callee
      stage's footprint into the caller. The result is diffed
      against the declared contracts.
    + {b Seq32 wrap-safety lint}: rejects structural
      comparison/[compare]/[min]/[max] (and their [Int.] forms) on
      [Tcp.Seq32.t]-typed values
      (an [int] alias — structural [<] breaks at the 2^32 wrap),
      seeding types from [.mli] signatures and [.ml] type
      declarations. [(* flexinfer: seq32-exempt *)] on the same or
      preceding line exempts a deliberate use.
    + {b Stage hygiene}: no blocking/I-O calls in stage bodies;
      per-execution container allocation warns unless annotated
      [(* flexinfer: alloc-exempt *)]; and, file-wide, a bare
      polymorphic [max]/[min]/[compare] warns unless annotated
      [(* flexinfer: poly-compare-exempt *)].
    + {b No [Stdlib.Queue]} anywhere under [lib/]: its popped cells
      stay linked, so a long-lived queue promotes every value pushed
      through it. [Sim.Fifo] replaces it; there is no exemption.

    The analysis is deliberately syntactic (DESIGN.md §15 lists the
    soundness caveats); it is a tripwire for contract rot, with
    FlexSan layer 2 remaining the runtime authority. *)

open Flextoe

(** {1 Findings} *)

type severity = Sev_error | Sev_warning

type finding = {
  f_rule : string;
      (** [undeclared-write], [undeclared-read], [contract-drift],
          [seq32-structural-compare], [stage-blocking-call],
          [stage-alloc], [poly-compare], [stdlib-queue],
          [missing-entry], [unknown-stage], [parse-error]. *)
  f_severity : severity;
  f_stage : string option;
  f_file : string;
  f_line : int;
  f_msg : string;
}

val finding_to_string : finding -> string
val errors : finding list -> finding list

(** {1 Footprint inference} *)

type footprint = {
  fp_stage : string;
  fp_reads : Effects.obj list;
  fp_writes : Effects.obj list;
}

val infer_footprints :
  dp_file:string ->
  ?helper_files:(string * string) list ->
  ?stage_map:(string * string list) list ->
  ?excluded:string list ->
  unit ->
  ( footprint list
    * finding list
    * ((string * Effects.kind * Effects.obj) * (string * int)) list,
    string )
  result
(** Parse [dp_file] and infer each stage's footprint. [helper_files]
    maps module names ([Protocol], ...) to their sources for the
    one-boundary call summaries. [stage_map] (stage name → entry
    functions: a bare name in [dp_file], a ["Module.fn"] one in that
    helper module, such as a row's extra entry) and
    [excluded] (functions never expanded) default to the pipeline
    table's ({!Pipeline.stage_map}, {!Pipeline.excluded}). Returns
    (footprints, hygiene/structural findings, first-occurrence
    source location per (stage, kind, obj)) or a parse error. *)

val diff_contracts :
  declared:Effects.contract list ->
  footprints:footprint list ->
  locs:((string * Effects.kind * Effects.obj) * (string * int)) list ->
  dp_file:string ->
  finding list
(** Inferred-but-undeclared write or read: error. Declared access
    never inferred: warning (drift). Read conformance matches
    FlexSan layer 2: a declared write covers reads of the same
    object. *)

(** {1 Seq32 lint} *)

val lint_seq32 :
  ?seed_paths:string list ->
  files:string list ->
  unit ->
  finding list * int
(** Lint [files]; seed Seq32-typed field names and function results
    from [seed_paths] (defaults to the files plus their [.mli]s when
    present). Returns the findings and the count of exempted
    comparison sites. *)

val lint_poly_compare : files:string list -> unit -> finding list
(** Stage hygiene over whole files: flag each bare [max], [min] or
    [compare] (or its [Stdlib.] form) that no local or earlier
    top-level binding shadows. These are [Stdlib]'s polymorphic
    functions, which compare through a C call even on ints; [Int.max],
    [Float.min], [String.compare] and friends are typed. Rule
    ["poly-compare"], a warning; [(* flexinfer: poly-compare-exempt *)]
    on the same or the preceding line exempts a site. {!analyze_repo}
    runs it over every [lib/] directory but [lib/baselines]. *)

val lint_stdlib_queue : files:string list -> unit -> finding list
(** Flag every use of [Queue] or [Stdlib.Queue] in [files] ([.ml] or
    [.mli]): a value, constructor or type in the module, or the module
    itself (an alias, an [open]). Rule ["stdlib-queue"], an error with
    no exemption marker. A bare [Queue] outside a module position is a
    constructor and is not flagged. {!analyze_repo} runs it over every
    directory under [lib/]. *)

(** {1 Repository driver} *)

type report = {
  rp_footprints : footprint list;
  rp_findings : finding list;
  rp_seq32_exempted : int;
  rp_files_linted : int;  (** Sources under [lib/] the lints read. *)
}

val find_root : ?start:string -> unit -> string option
(** Walk up from [start] (default: cwd) looking for
    [lib/flextoe/datapath.ml]. *)

val infer_repo_diff :
  ?pipeline:Pipeline.t ->
  root:string ->
  unit ->
  (footprint list * finding list, string) result
(** Footprint inference over [pipeline]'s stage map (default
    {!Pipeline.builtin}) diffed against its declared contracts, with
    no Seq32 sweep: the per-variant classification path
    ([~pipeline:(Defect.pipeline d)]). *)

val analyze_repo :
  ?pipeline:Pipeline.t ->
  root:string ->
  unit ->
  (report, string) result
(** The full FlexInfer run: footprint inference + contract diff over
    the datapath, Seq32 and poly-compare lints over [lib/sim],
    [lib/tcp], [lib/nfp], [lib/netsim], [lib/host], [lib/flextoe] and
    [lib/analysis] (top-level bindings and those of nested modules),
    and the stdlib-queue lint over every directory under [lib/]. *)

(** {1 JSON} *)

val report_json : report -> Sim.Json.t
