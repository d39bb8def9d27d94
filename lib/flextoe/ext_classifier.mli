(** Programmable flow classification (§2.1, §3.3).

    An eBPF module classifying ingress segments by destination port: a
    control-plane-managed BPF hash map assigns ports to traffic
    classes, and the program bumps a per-class packet counter in a BPF
    array map — in place, through the map-value pointer, exactly as
    real XDP classifiers do. Unclassified traffic lands in class 0.
    All segments pass through to the data path. *)

type t

val classes : int
(** Number of traffic classes (8). *)

val program : unit -> Bpf_insn.t array

val maps : unit -> Bpf_map.t array
(** Fresh maps of the shapes {!create} loads {!program} against: the
    port-to-class hash map (map 0) and the per-class counters
    (map 1). *)

val create : Sim.Engine.t -> t
val xdp : t -> Xdp.t
val install : t -> Datapath.t -> unit

val classify : t -> port:int -> cls:int -> unit
(** Control plane: assign a destination port to a class (1..7). *)

val declassify : t -> port:int -> unit
val class_of_port : t -> port:int -> int

val count : t -> cls:int -> int
(** Packets seen in a class so far. *)
