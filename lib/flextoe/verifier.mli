(** Abstract-interpretation eBPF verifier (§3.4's extension safety).

    FlexTOE only stays flexible if user programs can run {e on the
    data path} without being able to corrupt connection state, read
    past packet bounds, or stall an FPC. This module proves those
    properties statically, in the style of the Linux kernel verifier:

    - a syntactic pass ({!check_syntax}) checks register indices,
      jump targets, helper ids and endian widths, and rejects
      fallthrough off the end and programs with no [Exit]; a CFG pass
      then rejects unreachable instructions;
    - a symbolic execution pass tracks an abstract value per register
      (uninitialized, scalar with signed bounds, pointer to
      context/packet/packet-end/stack/map-value, or
      null-or-map-value) and a per-byte stack initialization map;
    - packet loads and stores are only legal under a packet bound
      {e proven} by a preceding guard branch comparing a
      [data + const] pointer against [data_end] (the canonical XDP
      idiom);
    - helper calls are checked against per-helper signatures (map-id
      scalars, initialized key/value buffers of the map's declared
      sizes when map metadata is supplied), and clobber caller-saved
      registers; [bpf_xdp_adjust_head] additionally invalidates every
      packet pointer and the proven bound;
    - termination: a cycle that re-enters an instruction with a state
      no more precise than one already on the DFS path can never make
      progress and is rejected as an unbounded loop; other loops are
      unrolled up to a per-instruction bound, and total explored
      states are capped, so verification itself always terminates.

    Rejections carry structured diagnostics: the instruction index,
    the abstract state at that point, and a typed reason. *)

(** {1 Map metadata} *)

type map_spec = { key_size : int; value_size : int }
(** Shape of one BPF map, indexed by the map id the program passes in
    r1. When [verify] receives the array, helper argument buffers are
    checked against the exact key/value sizes and map-value
    dereferences against [value_size]; without it those checks degrade
    to weaker pointer-validity checks (documented in DESIGN.md §9). *)

(** {1 Abstract domain} *)

type interval = { lo : int64; hi : int64 }  (** signed 64-bit bounds *)

type aval =
  | Uninit  (** never written (or clobbered by a helper call) *)
  | Scalar of interval
  | Ptr_ctx of int  (** XDP context + offset *)
  | Ptr_pkt of int  (** packet data + constant offset *)
  | Ptr_pkt_end
  | Ptr_stack of int  (** offset from the stack base; r10 = stack size *)
  | Ptr_map_value of { map : int option; off : int; size : int option }
  | Null_or_map_value of { map : int option; size : int option }
      (** result of [helper_map_lookup]; must be null-checked before
          dereference *)

type state = {
  regs : aval array;  (** length 11, r0..r10 *)
  stack : Bytes.t;  (** per-byte init map, ['\001'] = initialized *)
  mutable bound : int;  (** proven accessible packet bytes from data *)
}

(** {1 Diagnostics} *)

type reason =
  | Empty_program
  | Program_too_long of { len : int; max : int }
  | Invalid_register of int
  | Write_to_r10
  | Bad_endian_width of int
  | Jump_out_of_bounds of { target : int }
  | Fallthrough_off_end
  | No_exit  (** no [Exit] anywhere: the program can never return *)
  | Unreachable_insn
  | Unknown_helper of int
  | Uninitialized_register of int
  | Uninitialized_stack of { off : int; width : int }
      (** [off] is frame-pointer-relative (negative) *)
  | Stack_out_of_bounds of { off : int; width : int }
  | Pkt_out_of_bounds of { off : int; width : int; bound : int }
      (** access at [off] exceeds the [bound] bytes proven by guard
          branches *)
  | Ctx_bad_access of { off : int; width : int }
  | Write_to_ctx
  | Map_value_out_of_bounds of { off : int; width : int; size : int }
  | Possibly_null_deref of int
  | Deref_of_non_pointer of { reg : int; value : string }
  | Pointer_store_forbidden of string
      (** spilling a pointer into packet or map memory would leak it *)
  | Pointer_arithmetic of string
  | Pointer_return of string  (** r0 at [Exit] must be a scalar *)
  | Bad_helper_arg of {
      helper : int;
      arg : int;
      expected : string;
      got : string;
    }
  | Bad_map_id of { helper : int; got : string; n_maps : int }
  | Unbounded_loop of { back_to : int }
  | Complexity_exceeded of { budget : int }

type violation = { pc : int; reason : reason; state : state option }

val pp_aval : Format.formatter -> aval -> unit
val pp_state : Format.formatter -> state -> unit
val pp_reason : Format.formatter -> reason -> unit
val pp_violation : Format.formatter -> violation -> unit
val violation_to_string : violation -> string

(** {1 Verification} *)

type analysis = {
  insn_count : int;
  states_explored : int;
  back_edges : (int * int) list;  (** (from, to) CFG back edges *)
  trace : state list array;
      (** per instruction: the first few abstract in-states observed
          (for [flexlint --dump]) *)
}

val verify :
  ?max_insns:int ->
  ?maps:map_spec array ->
  Bpf_insn.t array ->
  (analysis, violation) result
(** Verify a program for the XDP entry convention (r1 = context
    pointer, r10 = frame pointer). [maps] enables exact key/value-size
    and map-id checking. Most callers want {!Ebpf.load}, which runs
    this against the maps the program will run with. *)

val check_syntax :
  ?max_insns:int -> Bpf_insn.t array -> (unit, violation) result
(** The syntactic pass of {!verify} alone: the shape checks that keep
    the VM's interpreter loop in bounds (every register, jump target
    and helper id valid, no fallthrough off the end, an [Exit]
    present). {!Ebpf.load_unverified} runs only this. *)
