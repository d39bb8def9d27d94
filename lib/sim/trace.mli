(** Lightweight tracepoint registry.

    FlexTOE's flexibility story (§5.1 of the paper) includes 48
    data-path tracepoints that can be toggled at run time. This module
    provides the registry: named tracepoints grouped by subsystem,
    each with a hit counter. Disabled tracepoints cost one branch;
    enabled ones cost one branch plus a counter bump. The data-path
    charges extra FPC cycles per enabled tracepoint of a stage's
    group ({!group_enabled}); that cost lives in the pipeline code,
    not here. *)

type t
(** A tracepoint registry. *)

type point
(** A single named tracepoint. *)

val create : unit -> t

val register : t -> group:string -> string -> point
(** [register t ~group name] adds a tracepoint. Registering the same
    [group]/[name] twice returns the existing point. *)

val find : t -> group:string -> string -> point
(** The point registered as [group]/[name]; raises [Not_found] if
    there is none. *)

val point_name : point -> string
(** ["group:name"]. *)

val enable : t -> ?group:string -> ?name:string -> unit -> int
(** Enable matching tracepoints (all, a whole group, or a single
    point). Returns the number of points now enabled. *)

val disable : t -> ?group:string -> ?name:string -> unit -> int
val enabled_count : t -> int

val group_enabled : t -> string -> int
(** Enabled points in one group (0 for an unknown group). *)

val hit : point -> unit
(** Count a hit if the point is enabled. *)

val hits : point -> int
(** Total recorded hits of a point. *)

val points : t -> point list
(** In registration order. *)

val reset_counts : t -> unit
