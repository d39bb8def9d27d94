(* Abstract-interpretation eBPF verifier. See verifier.mli and
   DESIGN.md §9 for the safety argument and the deliberate deviations
   from the Linux verifier. *)

open Bpf_insn

let stack_size = 512

type map_spec = { key_size : int; value_size : int }

type interval = { lo : int64; hi : int64 }

type aval =
  | Uninit
  | Scalar of interval
  | Ptr_ctx of int
  | Ptr_pkt of int
  | Ptr_pkt_end
  | Ptr_stack of int
  | Ptr_map_value of { map : int option; off : int; size : int option }
  | Null_or_map_value of { map : int option; size : int option }

type state = { regs : aval array; stack : Bytes.t; mutable bound : int }

type reason =
  | Empty_program
  | Program_too_long of { len : int; max : int }
  | Invalid_register of int
  | Write_to_r10
  | Bad_endian_width of int
  | Jump_out_of_bounds of { target : int }
  | Fallthrough_off_end
  | Unreachable_insn
  | Unknown_helper of int
  | Uninitialized_register of int
  | Uninitialized_stack of { off : int; width : int }
  | Stack_out_of_bounds of { off : int; width : int }
  | Pkt_out_of_bounds of { off : int; width : int; bound : int }
  | Ctx_bad_access of { off : int; width : int }
  | Write_to_ctx
  | Map_value_out_of_bounds of { off : int; width : int; size : int }
  | Possibly_null_deref of int
  | Deref_of_non_pointer of { reg : int; value : string }
  | Pointer_store_forbidden of string
  | Pointer_arithmetic of string
  | Pointer_return of string
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

type analysis = {
  insn_count : int;
  states_explored : int;
  back_edges : (int * int) list;
  trace : state list array;
}

(* --- Pretty printing ------------------------------------------------- *)

let aval_to_string = function
  | Uninit -> "uninit"
  | Scalar { lo; hi } when lo = hi -> Printf.sprintf "%Ld" lo
  | Scalar { lo; hi } when lo = Int64.min_int && hi = Int64.max_int ->
      "scalar(?)"
  | Scalar { lo; hi } -> Printf.sprintf "scalar[%Ld..%Ld]" lo hi
  | Ptr_ctx o -> Printf.sprintf "ctx%+d" o
  | Ptr_pkt o -> Printf.sprintf "pkt%+d" o
  | Ptr_pkt_end -> "pkt_end"
  | Ptr_stack o -> Printf.sprintf "fp%+d" (o - stack_size)
  | Ptr_map_value { map; off; size } ->
      Printf.sprintf "map_value%s%+d%s"
        (match map with Some m -> Printf.sprintf "(%d)" m | None -> "")
        off
        (match size with Some s -> Printf.sprintf "/%d" s | None -> "")
  | Null_or_map_value { map; _ } ->
      Printf.sprintf "map_value_or_null%s"
        (match map with Some m -> Printf.sprintf "(%d)" m | None -> "")

let pp_aval fmt v = Format.pp_print_string fmt (aval_to_string v)

let pp_state fmt st =
  let first = ref true in
  Format.fprintf fmt "@[<h>";
  Array.iteri
    (fun r v ->
      if v <> Uninit then begin
        if not !first then Format.fprintf fmt " ";
        first := false;
        Format.fprintf fmt "r%d=%a" r pp_aval v
      end)
    st.regs;
  if st.bound > 0 then Format.fprintf fmt " pkt_bound=%d" st.bound;
  (* Summarize initialized stack bytes as fp-relative ranges. *)
  let ranges = ref [] in
  let start = ref (-1) in
  for i = 0 to stack_size do
    let init = i < stack_size && Bytes.get st.stack i <> '\000' in
    if init && !start < 0 then start := i
    else if (not init) && !start >= 0 then begin
      ranges := (!start, i) :: !ranges;
      start := -1
    end
  done;
  List.iter
    (fun (a, b) ->
      Format.fprintf fmt " stack[%d..%d)" (a - stack_size) (b - stack_size))
    (List.rev !ranges);
  Format.fprintf fmt "@]"

let pp_reason fmt = function
  | Empty_program -> Format.fprintf fmt "empty program"
  | Program_too_long { len; max } ->
      Format.fprintf fmt "program too long (%d insns, max %d)" len max
  | Invalid_register r -> Format.fprintf fmt "invalid register r%d" r
  | Write_to_r10 -> Format.fprintf fmt "write to frame pointer r10"
  | Bad_endian_width w -> Format.fprintf fmt "bad endian width %d" w
  | Jump_out_of_bounds { target } ->
      Format.fprintf fmt "jump out of bounds (target %d)" target
  | Fallthrough_off_end ->
      Format.fprintf fmt "control falls through off the end of the program"
  | Unreachable_insn -> Format.fprintf fmt "unreachable instruction"
  | Unknown_helper id -> Format.fprintf fmt "unknown helper %d" id
  | Uninitialized_register r ->
      Format.fprintf fmt "read of uninitialized register r%d" r
  | Uninitialized_stack { off; width } ->
      Format.fprintf fmt
        "read of uninitialized stack bytes at fp%+d (width %d)" off width
  | Stack_out_of_bounds { off; width } ->
      Format.fprintf fmt "stack access out of bounds at fp%+d (width %d)" off
        width
  | Pkt_out_of_bounds { off; width; bound } ->
      Format.fprintf fmt
        "packet access at offset %d (width %d) exceeds proven bound of %d \
         bytes; add a data_end guard branch"
        off width bound
  | Ctx_bad_access { off; width } ->
      Format.fprintf fmt
        "context access at offset %d (width %d); only 8-byte loads of \
         data (+0) and data_end (+8) are allowed"
        off width
  | Write_to_ctx -> Format.fprintf fmt "write through context pointer"
  | Map_value_out_of_bounds { off; width; size } ->
      Format.fprintf fmt
        "map value access at offset %d (width %d) outside value size %d" off
        width size
  | Possibly_null_deref r ->
      Format.fprintf fmt
        "dereference of possibly-null map value in r%d; null-check the \
         lookup result first"
        r
  | Deref_of_non_pointer { reg; value } ->
      Format.fprintf fmt "dereference of non-pointer r%d (%s)" reg value
  | Pointer_store_forbidden region ->
      Format.fprintf fmt "storing a pointer to %s would leak it" region
  | Pointer_arithmetic what ->
      Format.fprintf fmt "unsupported pointer arithmetic: %s" what
  | Pointer_return v ->
      Format.fprintf fmt "r0 at exit must be a scalar action, not %s" v
  | Bad_helper_arg { helper; arg; expected; got } ->
      Format.fprintf fmt "helper %d argument r%d: expected %s, got %s" helper
        arg expected got
  | Bad_map_id { helper; got; n_maps } ->
      Format.fprintf fmt
        "helper %d map id must be a known constant in [0..%d), got %s" helper
        n_maps got
  | Unbounded_loop { back_to } ->
      Format.fprintf fmt
        "loop back to instruction %d cannot be proven to terminate" back_to
  | Complexity_exceeded { budget } ->
      Format.fprintf fmt "verification budget of %d states exceeded" budget

let pp_violation fmt v =
  Format.fprintf fmt "insn %d: %a" v.pc pp_reason v.reason;
  match v.state with
  | Some st -> Format.fprintf fmt " [%a]" pp_state st
  | None -> ()

let violation_to_string v = Format.asprintf "%a" pp_violation v

(* --- Abstract values -------------------------------------------------- *)

exception Reject of violation

let reject ?state pc reason = raise (Reject { pc; reason; state })

let unknown = Scalar { lo = Int64.min_int; hi = Int64.max_int }
let const v = Scalar { lo = v; hi = v }
let u32_interval = Scalar { lo = 0L; hi = 0xFFFFFFFFL }

let width_scalar = function
  | W8 -> Scalar { lo = 0L; hi = 0xFFL }
  | W16 -> Scalar { lo = 0L; hi = 0xFFFFL }
  | W32 -> u32_interval
  | W64 -> unknown

let width_of = function W8 -> 1 | W16 -> 2 | W32 -> 4 | W64 -> 8

let is_ptr = function
  | Ptr_ctx _ | Ptr_pkt _ | Ptr_pkt_end | Ptr_stack _ | Ptr_map_value _
  | Null_or_map_value _ ->
      true
  | Uninit | Scalar _ -> false

let copy_state st =
  { regs = Array.copy st.regs; stack = Bytes.copy st.stack; bound = st.bound }

(* st is at least as precise as old: every concrete state described by
   st is also described by old, so a path already verified from old
   covers st. *)
let subsumed ~old st =
  old.bound <= st.bound
  && (let ok = ref true in
      for r = 0 to 10 do
        (match (old.regs.(r), st.regs.(r)) with
        | Uninit, _ -> ()
        | Scalar a, Scalar b -> if not (a.lo <= b.lo && b.hi <= a.hi) then ok := false
        | o, v -> if o <> v then ok := false)
      done;
      !ok)
  &&
  let ok = ref true in
  for i = 0 to stack_size - 1 do
    if Bytes.get old.stack i <> '\000' && Bytes.get st.stack i = '\000' then
      ok := false
  done;
  !ok

(* --- Constant ALU semantics (mirrors Ebpf.run) ------------------------ *)

let alu64_const op a b =
  let open Int64 in
  match op with
  | Add -> add a b
  | Sub -> sub a b
  | Mul -> mul a b
  | Div -> if b = 0L then 0L else unsigned_div a b
  | Or -> logor a b
  | And -> logand a b
  | Lsh -> shift_left a (to_int (logand b 63L))
  | Rsh -> shift_right_logical a (to_int (logand b 63L))
  | Neg -> neg a
  | Mod -> if b = 0L then a else unsigned_rem a b
  | Xor -> logxor a b
  | Mov -> b
  | Arsh -> shift_right a (to_int (logand b 63L))

let mask32 v = Int64.logand v 0xFFFFFFFFL

let alu32_const op a b =
  let a = mask32 a and b = mask32 b in
  let open Int64 in
  let r =
    match op with
    | Add -> add a b
    | Sub -> sub a b
    | Mul -> mul a b
    | Div -> if b = 0L then 0L else unsigned_div a b
    | Or -> logor a b
    | And -> logand a b
    | Lsh -> shift_left a (to_int (logand b 31L))
    | Rsh -> shift_right_logical a (to_int (logand b 31L))
    | Neg -> neg a
    | Mod -> if b = 0L then a else unsigned_rem a b
    | Xor -> logxor a b
    | Mov -> b
    | Arsh ->
        let sa = shift_right (shift_left a 32) 32 in
        shift_right sa (to_int (logand b 31L))
  in
  mask32 r

let add_no_ov x y =
  let s = Int64.add x y in
  if (x > 0L && y > 0L && s < 0L) || (x < 0L && y < 0L && s >= 0L) then None
  else Some s

(* Interval result of a 64-bit scalar op. Consts stay exact; a few
   shapes keep useful bounds; everything else widens to unknown. *)
let alu64_scalar op a b =
  if a.lo = a.hi && b.lo = b.hi then const (alu64_const op a.lo b.lo)
  else
    match op with
    | Mov -> Scalar b
    | And when b.lo = b.hi && b.lo >= 0L -> Scalar { lo = 0L; hi = b.lo }
    | Add -> (
        match (add_no_ov a.lo b.lo, add_no_ov a.hi b.hi) with
        | Some lo, Some hi -> Scalar { lo; hi }
        | _ -> unknown)
    | Sub -> (
        match (add_no_ov a.lo (Int64.neg b.hi), add_no_ov a.hi (Int64.neg b.lo))
        with
        | Some lo, Some hi when b.hi <> Int64.min_int -> Scalar { lo; hi }
        | _ -> unknown)
    | _ -> unknown

let eval_cond cond a b =
  let u = Int64.unsigned_compare a b in
  let sg = Int64.compare a b in
  match cond with
  | Jeq -> a = b
  | Jne -> a <> b
  | Jgt -> u > 0
  | Jge -> u >= 0
  | Jlt -> u < 0
  | Jle -> u <= 0
  | Jset -> Int64.logand a b <> 0L
  | Jsgt -> sg > 0
  | Jsge -> sg >= 0
  | Jslt -> sg < 0
  | Jsle -> sg <= 0

(* --- Helper signatures ------------------------------------------------ *)

type arg_kind = Arg_scalar | Arg_map_id | Arg_key | Arg_value
type ret_kind = Ret_scalar | Ret_map_value_or_null

type helper_sig = {
  args : (int * arg_kind) list;  (* (register, kind) *)
  ret : ret_kind;
  invalidates_pkt : bool;
}

let helper_sigs =
  [
    ( helper_map_lookup,
      {
        args = [ (1, Arg_map_id); (2, Arg_key) ];
        ret = Ret_map_value_or_null;
        invalidates_pkt = false;
      } );
    ( helper_map_update,
      {
        args = [ (1, Arg_map_id); (2, Arg_key); (3, Arg_value) ];
        ret = Ret_scalar;
        invalidates_pkt = false;
      } );
    ( helper_map_delete,
      {
        args = [ (1, Arg_map_id); (2, Arg_key) ];
        ret = Ret_scalar;
        invalidates_pkt = false;
      } );
    (helper_ktime, { args = []; ret = Ret_scalar; invalidates_pkt = false });
    ( helper_adjust_head,
      { args = [ (2, Arg_scalar) ]; ret = Ret_scalar; invalidates_pkt = true }
    );
    ( helper_csum_fixup,
      { args = []; ret = Ret_scalar; invalidates_pkt = false } );
  ]

(* --- Syntactic pass --------------------------------------------------- *)

let can_fallthrough = function Exit | Ja _ -> false | _ -> true

let successors prog i =
  match prog.(i) with
  | Exit -> []
  | Ja off -> [ i + 1 + off ]
  | Jmp (_, _, _, off) -> [ i + 1 + off; i + 1 ]
  | _ -> [ i + 1 ]

let syntactic_pass ~max_insns insns =
  let n = Array.length insns in
  if n = 0 then reject 0 Empty_program;
  if n > max_insns then reject 0 (Program_too_long { len = n; max = max_insns });
  let reg_ok r = r >= 0 && r <= 10 in
  let check_src pc = function
    | Reg r -> if not (reg_ok r) then reject pc (Invalid_register r)
    | Imm _ -> ()
  in
  let check_dst pc d =
    if not (reg_ok d) then reject pc (Invalid_register d);
    if d = 10 then reject pc Write_to_r10
  in
  let check_jump pc off =
    let t = pc + 1 + off in
    if t < 0 || t >= n then reject pc (Jump_out_of_bounds { target = t })
  in
  Array.iteri
    (fun pc insn ->
      (match insn with
      | Alu64 (_, d, s) | Alu32 (_, d, s) ->
          check_dst pc d;
          check_src pc s
      | Endian_be (d, bits) ->
          check_dst pc d;
          if bits <> 16 && bits <> 32 && bits <> 64 then
            reject pc (Bad_endian_width bits)
      | Ld_imm64 (d, _) -> check_dst pc d
      | Ldx (_, d, s, _) ->
          check_dst pc d;
          if not (reg_ok s) then reject pc (Invalid_register s)
      | St_imm (_, d, _, _) ->
          if not (reg_ok d) then reject pc (Invalid_register d)
      | Stx (_, d, _, s) ->
          if not (reg_ok d) then reject pc (Invalid_register d);
          if not (reg_ok s) then reject pc (Invalid_register s)
      | Ja off -> check_jump pc off
      | Jmp (_, d, s, off) ->
          if not (reg_ok d) then reject pc (Invalid_register d);
          check_src pc s;
          check_jump pc off
      | Call id ->
          if not (List.mem_assoc id helper_sigs) then
            reject pc (Unknown_helper id)
      | Exit -> ());
      if pc = n - 1 && can_fallthrough insn then reject pc Fallthrough_off_end)
    insns

(* Reachability from instruction 0 and back-edge classification. *)
let cfg_pass insns =
  let n = Array.length insns in
  let color = Array.make n 0 in
  let back = ref [] in
  let rec dfs u =
    color.(u) <- 1;
    List.iter
      (fun v ->
        if color.(v) = 0 then dfs v
        else if color.(v) = 1 then back := (u, v) :: !back)
      (successors insns u);
    color.(u) <- 2
  in
  dfs 0;
  Array.iteri (fun i c -> if c = 0 then reject i Unreachable_insn) color;
  List.rev !back

(* --- Abstract interpretation ------------------------------------------ *)

let state_budget = 200_000
let unroll_limit = 4096
let trace_keep = 4

let init_state () =
  let regs = Array.make 11 Uninit in
  regs.(1) <- Ptr_ctx 0;
  regs.(10) <- Ptr_stack stack_size;
  { regs; stack = Bytes.make stack_size '\000'; bound = 0 }

(* One abstract execution step: interpret [prog.(pc)] over a copy of
   [st] and return the successor (pc, state) pairs. Raises [Reject] on
   a safety violation. *)
let step ~maps ~prog pc st0 =
  let st = copy_state st0 in
  let insn = prog.(pc) in
  let read r =
    match st.regs.(r) with
    | Uninit -> reject ~state:st pc (Uninitialized_register r)
    | v -> v
  in
  let operand = function Reg r -> read r | Imm v -> const (Int64.of_int v) in
  let ptr_add what ptr k =
    match ptr with
    | Ptr_pkt o -> Ptr_pkt (o + k)
    | Ptr_stack o -> Ptr_stack (o + k)
    | Ptr_ctx o -> Ptr_ctx (o + k)
    | Ptr_map_value m -> Ptr_map_value { m with off = m.off + k }
    | _ -> reject ~state:st pc (Pointer_arithmetic what)
  in
  (* Memory access through [ptr] (register [reg]) at [ptr + ioff],
     [width] bytes. For stores, [value] is the stored abstract value
     (None for St_imm). Returns the loaded value for loads. *)
  let access ~store ~reg ?value ptr ioff width =
    let storing_ptr =
      store && match value with Some v -> is_ptr v | None -> false
    in
    match ptr with
    | Ptr_ctx o ->
        if store then reject ~state:st pc Write_to_ctx;
        let a = o + ioff in
        if width = 8 && a = 0 then Ptr_pkt 0
        else if width = 8 && a = 8 then Ptr_pkt_end
        else reject ~state:st pc (Ctx_bad_access { off = a; width })
    | Ptr_pkt o ->
        if storing_ptr then
          reject ~state:st pc (Pointer_store_forbidden "packet");
        let a = o + ioff in
        if a < 0 || a + width > st.bound then
          reject ~state:st pc
            (Pkt_out_of_bounds { off = a; width; bound = st.bound });
        width_scalar (match width with 1 -> W8 | 2 -> W16 | 4 -> W32 | _ -> W64)
    | Ptr_stack o ->
        let a = o + ioff in
        if a < 0 || a + width > stack_size then
          reject ~state:st pc
            (Stack_out_of_bounds { off = a - stack_size; width });
        if store then begin
          Bytes.fill st.stack a width '\001';
          unknown
        end
        else begin
          for i = a to a + width - 1 do
            if Bytes.get st.stack i = '\000' then
              reject ~state:st pc
                (Uninitialized_stack { off = a - stack_size; width })
          done;
          width_scalar
            (match width with 1 -> W8 | 2 -> W16 | 4 -> W32 | _ -> W64)
        end
    | Ptr_map_value { off; size; _ } ->
        if storing_ptr then
          reject ~state:st pc (Pointer_store_forbidden "map value");
        let a = off + ioff in
        let known_size = match size with Some s -> s | None -> max_int in
        if a < 0 || a + width > known_size then
          reject ~state:st pc
            (Map_value_out_of_bounds
               { off = a; width; size = (match size with Some s -> s | None -> -1) });
        width_scalar (match width with 1 -> W8 | 2 -> W16 | 4 -> W32 | _ -> W64)
    | Null_or_map_value _ -> reject ~state:st pc (Possibly_null_deref reg)
    | (Ptr_pkt_end | Scalar _) as v ->
        reject ~state:st pc
          (Deref_of_non_pointer { reg; value = aval_to_string v })
    | Uninit -> assert false (* [read] already rejected *)
  in
  (* Buffer argument to a helper: [len] bytes readable through [v]. *)
  let check_buffer ~helper ~arg v len =
    match v with
    | Ptr_stack o ->
        if o < 0 || o + len > stack_size then
          reject ~state:st pc (Stack_out_of_bounds { off = o - stack_size; width = len });
        for i = o to o + len - 1 do
          if Bytes.get st.stack i = '\000' then
            reject ~state:st pc
              (Uninitialized_stack { off = o - stack_size; width = len })
        done
    | Ptr_pkt o ->
        if o < 0 || o + len > st.bound then
          reject ~state:st pc
            (Pkt_out_of_bounds { off = o; width = len; bound = st.bound })
    | Ptr_map_value { off; size; _ } -> (
        match size with
        | Some s when off < 0 || off + len > s ->
            reject ~state:st pc
              (Map_value_out_of_bounds { off; width = len; size = s })
        | _ -> ())
    | v ->
        reject ~state:st pc
          (Bad_helper_arg
             {
               helper;
               arg;
               expected = "pointer to readable memory";
               got = aval_to_string v;
             })
  in
  let next = pc + 1 in
  match insn with
  | Exit -> (
      match st.regs.(0) with
      | Uninit -> reject ~state:st pc (Uninitialized_register 0)
      | Scalar _ -> []
      | v -> reject ~state:st pc (Pointer_return (aval_to_string v)))
  | Ld_imm64 (d, v) ->
      st.regs.(d) <- const v;
      [ (next, st) ]
  | Endian_be (d, bits) -> (
      match read d with
      | Scalar _ ->
          st.regs.(d) <-
            width_scalar (match bits with 16 -> W16 | 32 -> W32 | _ -> W64);
          [ (next, st) ]
      | v ->
          reject ~state:st pc
            (Pointer_arithmetic ("byte swap of " ^ aval_to_string v)))
  | Alu64 (op, d, s) ->
      (match op with
      | Mov -> st.regs.(d) <- operand s
      | Neg -> (
          match read d with
          | Scalar a when a.lo = a.hi -> st.regs.(d) <- const (Int64.neg a.lo)
          | Scalar _ -> st.regs.(d) <- unknown
          | v ->
              reject ~state:st pc
                (Pointer_arithmetic ("neg of " ^ aval_to_string v)))
      | Add | Sub -> (
          let vd = read d and vs = operand s in
          match (vd, vs) with
          | Scalar a, Scalar b -> st.regs.(d) <- alu64_scalar op a b
          | ptr, Scalar { lo; hi } when lo = hi && is_ptr ptr ->
              let k = Int64.to_int lo in
              let k = if op = Sub then -k else k in
              st.regs.(d) <-
                ptr_add
                  (Printf.sprintf "r%d %s non-constant or oversized offset" d
                     (if op = Sub then "-" else "+"))
                  ptr k
          | Scalar { lo; hi }, ptr when lo = hi && op = Add && is_ptr ptr ->
              st.regs.(d) <-
                ptr_add
                  (Printf.sprintf "constant + r%d pointer" d)
                  ptr (Int64.to_int lo)
          | a, b ->
              reject ~state:st pc
                (Pointer_arithmetic
                   (Printf.sprintf "%s on %s and %s"
                      (if op = Add then "add" else "sub")
                      (aval_to_string a) (aval_to_string b))))
      | _ -> (
          let vd = read d and vs = operand s in
          match (vd, vs) with
          | Scalar a, Scalar b -> st.regs.(d) <- alu64_scalar op a b
          | a, b ->
              reject ~state:st pc
                (Pointer_arithmetic
                   (Printf.sprintf "alu64 on %s and %s" (aval_to_string a)
                      (aval_to_string b)))));
      [ (next, st) ]
  | Alu32 (op, d, s) ->
      let vs = match op with Neg -> const 0L | _ -> operand s in
      let vd = match op with Mov -> Scalar { lo = 0L; hi = 0L } | _ -> read d in
      (match (vd, vs) with
      | Scalar a, Scalar b ->
          if a.lo = a.hi && b.lo = b.hi then
            st.regs.(d) <- const (alu32_const op a.lo b.lo)
          else st.regs.(d) <- u32_interval
      | a, b ->
          reject ~state:st pc
            (Pointer_arithmetic
               (Printf.sprintf "32-bit alu on %s and %s" (aval_to_string a)
                  (aval_to_string b))));
      [ (next, st) ]
  | Ldx (sz, d, s, off) ->
      let v = access ~store:false ~reg:s (read s) off (width_of sz) in
      st.regs.(d) <- v;
      [ (next, st) ]
  | St_imm (sz, d, off, _) ->
      ignore (access ~store:true ~reg:d (read d) off (width_of sz));
      [ (next, st) ]
  | Stx (sz, d, off, s) ->
      let value = read s in
      ignore (access ~store:true ~reg:d ~value (read d) off (width_of sz));
      [ (next, st) ]
  | Ja off -> [ (pc + 1 + off, st) ]
  | Jmp (cond, d, s, off) -> (
      let vd = read d and vs = operand s in
      let taken = pc + 1 + off and fall = pc + 1 in
      let both () = [ (taken, st); (fall, copy_state st) ] in
      match (vd, vs) with
      | Scalar a, Scalar b when a.lo = a.hi && b.lo = b.hi ->
          (* Statically decided branch: prune the dead edge. This is
             what makes bounded loops verifiable. *)
          if eval_cond cond a.lo b.lo then [ (taken, st) ] else [ (fall, st) ]
      | Ptr_pkt o, Ptr_pkt_end | Ptr_pkt_end, Ptr_pkt o ->
          (* Length-guard refinement: comparing data+o against
             data_end proves a packet bound on one edge. *)
          let flipped = match vd with Ptr_pkt_end -> true | _ -> false in
          let base_cond =
            match cond with
            | Jsgt -> Jgt
            | Jsge -> Jge
            | Jslt -> Jlt
            | Jsle -> Jle
            | c -> c
          in
          let t_gain, f_gain =
            (* Proven bytes on (taken, fallthrough) edges; 0 = none. *)
            if not flipped then
              (* data+o  <cond>  data_end, packet length = len:
                 taken means (o cond len). *)
              match base_cond with
              | Jgt -> (0, o)  (* fall: o <= len *)
              | Jge -> (0, o + 1)  (* fall: o < len *)
              | Jlt -> (o + 1, 0)  (* taken: o < len *)
              | Jle -> (o, 0)  (* taken: o <= len *)
              | Jeq -> (o, 0)
              | Jne -> (0, o)
              | _ -> (0, 0)
            else
              (* data_end <cond> data+o: taken means (len cond o). *)
              match base_cond with
              | Jgt -> (o + 1, 0)  (* taken: len > o *)
              | Jge -> (o, 0)
              | Jlt -> (0, o)  (* fall: len >= o *)
              | Jle -> (0, o + 1)  (* fall: len > o *)
              | Jeq -> (o, 0)
              | Jne -> (0, o)
              | _ -> (0, 0)
          in
          let st_t = st and st_f = copy_state st in
          st_t.bound <- Int.max st_t.bound t_gain;
          st_f.bound <- Int.max st_f.bound f_gain;
          [ (taken, st_t); (fall, st_f) ]
      | Null_or_map_value { map; size }, Scalar { lo = 0L; hi = 0L } -> (
          let as_ptr = Ptr_map_value { map; off = 0; size } in
          match cond with
          | Jeq ->
              let st_t = st and st_f = copy_state st in
              st_t.regs.(d) <- const 0L;
              st_f.regs.(d) <- as_ptr;
              [ (taken, st_t); (fall, st_f) ]
          | Jne ->
              let st_t = st and st_f = copy_state st in
              st_t.regs.(d) <- as_ptr;
              st_f.regs.(d) <- const 0L;
              [ (taken, st_t); (fall, st_f) ]
          | _ -> both ())
      | _ -> both ())
  | Call id ->
      let hsig = List.assoc id helper_sigs in
      (* Resolve the map id argument first (if any) so buffer sizes are
         known when checking key/value arguments. *)
      let map_id =
        if List.exists (fun (_, k) -> k = Arg_map_id) hsig.args then begin
          let argreg = fst (List.find (fun (_, k) -> k = Arg_map_id) hsig.args) in
          match read argreg with
          | Scalar { lo; hi } when lo = hi -> (
              let idv = Int64.to_int lo in
              match maps with
              | Some specs ->
                  if idv < 0 || idv >= Array.length specs then
                    reject ~state:st pc
                      (Bad_map_id
                         {
                           helper = id;
                           got = Int64.to_string lo;
                           n_maps = Array.length specs;
                         });
                  Some idv
              | None -> Some idv)
          | Scalar _ -> (
              match maps with
              | Some specs ->
                  reject ~state:st pc
                    (Bad_map_id
                       {
                         helper = id;
                         got = "non-constant scalar";
                         n_maps = Array.length specs;
                       })
              | None -> None)
          | v ->
              reject ~state:st pc
                (Bad_helper_arg
                   {
                     helper = id;
                     arg = argreg;
                     expected = "map id (constant scalar)";
                     got = aval_to_string v;
                   })
        end
        else None
      in
      let spec =
        match (maps, map_id) with
        | Some specs, Some idv when idv >= 0 && idv < Array.length specs ->
            Some specs.(idv)
        | _ -> None
      in
      List.iter
        (fun (argreg, kind) ->
          let v = read argreg in
          match kind with
          | Arg_map_id -> ()  (* already checked above *)
          | Arg_scalar -> (
              match v with
              | Scalar _ -> ()
              | v ->
                  reject ~state:st pc
                    (Bad_helper_arg
                       {
                         helper = id;
                         arg = argreg;
                         expected = "scalar";
                         got = aval_to_string v;
                       }))
          | Arg_key ->
              let len = match spec with Some s -> s.key_size | None -> 1 in
              check_buffer ~helper:id ~arg:argreg v len
          | Arg_value ->
              let len = match spec with Some s -> s.value_size | None -> 1 in
              check_buffer ~helper:id ~arg:argreg v len)
        hsig.args;
      (* Caller-saved registers are clobbered by the call. *)
      for r = 1 to 5 do
        st.regs.(r) <- Uninit
      done;
      st.regs.(0) <-
        (match hsig.ret with
        | Ret_scalar -> unknown
        | Ret_map_value_or_null ->
            Null_or_map_value
              {
                map = map_id;
                size =
                  (match spec with Some s -> Some s.value_size | None -> None);
              });
      if hsig.invalidates_pkt then begin
        (* adjust_head moves the packet view: every derived packet
           pointer and the proven bound are stale. *)
        for r = 0 to 10 do
          match st.regs.(r) with
          | Ptr_pkt _ | Ptr_pkt_end -> st.regs.(r) <- Uninit
          | _ -> ()
        done;
        st.bound <- 0
      end;
      [ (next, st) ]

let verify ?(max_insns = 4096) ?maps insns =
  try
    syntactic_pass ~max_insns insns;
    let back_edges = cfg_pass insns in
    let n = Array.length insns in
    let memo = Array.make n [] in
    let trace = Array.make n [] in
    let visits = Array.make n 0 in
    let explored = ref 0 in
    let rec visit pc st =
      incr explored;
      if !explored > state_budget then
        reject ~state:st pc (Complexity_exceeded { budget = state_budget });
      match
        List.find_opt (fun (old, _) -> subsumed ~old st) memo.(pc)
      with
      | Some (_, on_path) when !on_path ->
          (* A cycle whose state is no more precise than when we last
             entered this instruction: no progress toward exit. *)
          reject ~state:st pc (Unbounded_loop { back_to = pc })
      | Some _ -> ()  (* already verified from an equal-or-weaker state *)
      | None ->
          if visits.(pc) >= unroll_limit then
            reject ~state:st pc (Unbounded_loop { back_to = pc });
          visits.(pc) <- visits.(pc) + 1;
          if List.length trace.(pc) < trace_keep then
            trace.(pc) <- trace.(pc) @ [ copy_state st ];
          let on_path = ref true in
          memo.(pc) <- (copy_state st, on_path) :: memo.(pc);
          let succs = step ~maps ~prog:insns pc st in
          List.iter (fun (pc', st') -> visit pc' st') succs;
          on_path := false;
          visits.(pc) <- visits.(pc) - 1
    in
    visit 0 (init_state ());
    Ok
      {
        insn_count = n;
        states_explored = !explored;
        back_edges;
        trace;
      }
  with Reject v -> Error v
