(** The one shape of every [bench/BENCH_*.json] file, and the one
    checker every regression gate runs over it.

    A record is an experiment, its workload, the host it ran on and a
    flat map of named numbers such as ["mops.1"], ["retention.10"] or
    ["bytes_per_flow.16384"]. A gate is a list of checks over keys of
    the record it just measured and of a checked-in baseline record. *)

type host = {
  cores : int;
  workers : int;
  rev : string;
      (** Git short revision of the source tree, with ["-dirty"] if it
          has uncommitted changes, or ["unknown"]. *)
  profile : string;  (** The dune profile the bench was built in. *)
}

type t = {
  experiment : string;
  workload : string;
  host : host;
  metrics : (string * float) list;  (** In write order. *)
}

val make :
  experiment:string ->
  workload:string ->
  workers:int ->
  (string * float) list ->
  t
(** [cores] is [Domain.recommended_domain_count ()]; [workers] is the
    number of domains the run actually used; [rev] is the short git
    revision of the working directory, suffixed ["-dirty"] when the
    tree has uncommitted changes, or ["unknown"] outside a checkout;
    [profile] is the dune profile this library was built in (wall-clock
    numbers from a dev build, which compiles every module [-opaque],
    are not comparable with a release build's). *)

val series : string -> ('a -> int) -> ('a -> float) -> 'a list ->
  (string * float) list
(** [series "mops" label value xs] names each [value x] ["mops.<label x>"]. *)

val get : t -> string -> float option

val write : string -> t -> unit
val read : string -> (t, string) result
(** [Error] on a missing file, a parse error or a malformed record. A
    record written before [rev] and [profile] existed reads with both
    ["unknown"]. *)

(** {1 Checks} *)

type operand =
  | Cur of string  (** A key of the record just measured. *)
  | Base of string  (** A key of the baseline record. *)
  | Num of float

type rel =
  | Ge of float  (** [lhs >= k * rhs] *)
  | Gt  (** [lhs > rhs] *)
  | Le  (** [lhs <= rhs] *)
  | Eq  (** [lhs = rhs] *)

type check

val check : string -> operand -> rel -> operand -> check
(** [check name lhs rel rhs]. A missing key or an unreadable baseline
    makes it FAIL. *)

val skip : string -> string -> check
(** [skip name why]: a check that is not meaningful on this run. *)

val gate : baseline:string -> out:string -> t -> check list -> bool
(** Write the record to [out], then print one [OK]/[FAIL]/[SKIP] line
    per check. The baseline file is read at most once, and only if a
    check names a [Base] key. [false] iff some check FAILs. *)
