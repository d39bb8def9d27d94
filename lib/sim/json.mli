(** Minimal JSON values: printing, strict parsing, and accessors.

    Just enough JSON for FlexScope's exporters (Chrome [trace_event]
    JSONL, metrics snapshots) and their consumers ([flexlint top],
    [flexlint trace-check], tests) — the repository deliberately takes
    no external JSON dependency. Integers and floats are kept
    distinct; [NaN]/[inf] print as [null]. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list  (** Key order is preserved. *)

val to_string : t -> string

val to_string_pretty : t -> string
(** Indented, newline-terminated, for files people read and diff.
    Non-integral floats print in the shortest form that parses back
    to the same double. *)

val of_string : string -> (t, string) result
(** Strict parse of a complete JSON document (trailing garbage is an
    error; surrounding whitespace is fine). *)

(** {1 Accessors} *)

val member : string -> t -> t option
(** [member k (Obj ...)] is the value bound to [k], if any. [None] on
    non-objects. *)

val to_int_opt : t -> int option
val to_float_opt : t -> float option
(** [Int]s widen to float; everything else is [None]. *)

val to_string_opt : t -> string option
val to_obj_opt : t -> (string * t) list option
