(* FlexInfer (documented in infer.mli). The footprint walk tracks
   which expressions denote the datapath record, the per-connection
   state and its partitions, the connection tables and the ATX rings.
   An access is recognized by witness — a call carrying both a literal
   [Effects.<Obj>] and a literal [Effects.Read]/[Effects.Write]
   argument (the [sa]/[San.access] idiom) — or by mapping: known
   module operations ([Nfp.Conn_table.*] on the connection table,
   [Nfp.Lookup.*], [Host.Payload_buf.*], [Scheduler.*], [Nfp.Ring.*]
   on ATX rings, [Tcp.Reassembly.*]) plus field reads and writes on
   the partition records and the [st_*] counters. The walk visits
   every branch, follows values through lets, matches and literal
   closures but not through containers, and is exact on the current
   pipeline by construction (the golden test pins the clean-tree diff
   to empty). *)

open Flextoe
module E = Effects

type severity = Sev_error | Sev_warning

let severity_name = function Sev_error -> "error" | Sev_warning -> "warning"

type finding = {
  f_rule : string;
  f_severity : severity;
  f_stage : string option;  (** stage the finding is about, if any *)
  f_file : string;
  f_line : int;
  f_msg : string;
}

let finding_to_string f =
  Printf.sprintf "%s:%d: [%s] %s%s" f.f_file f.f_line
    (severity_name f.f_severity)
    (match f.f_stage with Some s -> s ^ ": " | None -> "")
    f.f_msg

type footprint = {
  fp_stage : string;
  fp_reads : E.obj list;
  fp_writes : E.obj list;
}

let errors fs = List.filter (fun f -> f.f_severity = Sev_error) fs

(* --- Parsing -------------------------------------------------------- *)

let parse_with parser path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let lexbuf = Lexing.from_channel ic in
        Lexing.set_filename lexbuf path;
        parser lexbuf)
  with
  | ast -> Ok ast
  | exception Sys_error msg -> Error msg
  | exception exn -> Error (path ^ ": " ^ Printexc.to_string exn)

let parse_impl path = parse_with Parse.implementation path
let parse_intf path = parse_with Parse.interface path

let line_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_lnum
let file_of (loc : Location.t) = loc.Location.loc_start.Lexing.pos_fname

let module_of_path path =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename path))

(* Longident helpers. [Lapply] never appears in the sources we
   analyze; flatten would raise on it, so guard. *)
let lid_parts (l : Longident.t) =
  match l with
  | Longident.Lapply _ -> []
  | _ -> ( try Longident.flatten l with _ -> [])

let lid_last l = match List.rev (lid_parts l) with x :: _ -> Some x | [] -> None

(* Last two components: ("", f) for an unqualified [f]. *)
let lid_last2 l =
  match List.rev (lid_parts l) with
  | f :: m :: _ -> Some (m, f)
  | [ f ] -> Some ("", f)
  | [] -> None

(* Exemption comments. The parser drops comments, so exemptions are
   matched textually: the marker on the finding's line or the line
   above suppresses it. *)
let file_lines path =
  match open_in_bin path with
  | exception Sys_error _ -> [||]
  | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          let lines = ref [] in
          (try
             while true do
               lines := input_line ic :: !lines
             done
           with End_of_file -> ());
          Array.of_list (List.rev !lines))

let contains_sub line sub =
  let ll = String.length line and sl = String.length sub in
  let rec go i = i + sl <= ll && (String.sub line i sl = sub || go (i + 1)) in
  sl > 0 && go 0

let exempted lines marker ln =
  let has i = i >= 1 && i <= Array.length lines && contains_sub lines.(i - 1) marker in
  has ln || has (ln - 1)

(* ==================================================================== *)
(* Footprint inference                                                  *)
(* ==================================================================== *)

let obj_constructors =
  [
    ("Conn_pre", E.Conn_pre);
    ("Conn_proto", E.Conn_proto);
    ("Reasm", E.Reasm);
    ("Conn_post", E.Conn_post);
    ("Rx_payload", E.Rx_payload);
    ("Tx_payload", E.Tx_payload);
    ("Desc_ring", E.Desc_ring);
    ("Conn_db", E.Conn_db);
    ("Sched_state", E.Sched_state);
    ("Global_stats", E.Global_stats);
  ]

(* Abstract values the walker tracks: just enough structure to resolve
   the access paths the datapath actually uses. *)
type tag =
  | T_dp  (** the [Datapath.t] record *)
  | T_conn  (** [Conn_state.t] *)
  | T_conn_opt  (** [Conn_state.t option] *)
  | T_pre
  | T_proto
  | T_post  (** connection-state partitions *)
  | T_reasm  (** [Tcp.Reassembly.t] (proto partition field) *)
  | T_conns_tbl  (** [t.conns] — the Conn_db connection table *)
  | T_conn_db  (** [t.conn_db] — the Nfp.Lookup flow table *)
  | T_atx_arr  (** [t.atx] *)
  | T_atx_ring  (** one ATX descriptor ring *)
  | T_rxbuf
  | T_txbuf  (** host payload buffers *)
  | T_none

type fn_info = {
  fn_params : (Asttypes.arg_label * Parsetree.pattern) list;
  fn_body : Parsetree.expression;
}

(* A module scope: where unqualified calls resolve, and whether the
   walk has already crossed a module boundary (at most one helper
   module deep). *)
type mod_scope = {
  m_name : string;
  m_fns : (string, fn_info) Hashtbl.t;
  m_crossed : bool;
}

type acc = {
  mutable ac_reads : (E.obj * string * int) list;  (* obj, file, line *)
  mutable ac_writes : (E.obj * string * int) list;
  mutable ac_findings : finding list;
}

type wctx = {
  w_stage : string;
  w_entries : string list;  (* stage entries: never expanded (hand-offs) *)
  w_excluded : string list;  (* rtc baseline &c.: never expanded *)
  w_helpers : (string * (string, fn_info) Hashtbl.t) list;
  w_acc : acc;
  w_lines : (string, string array) Hashtbl.t;  (* file -> source lines *)
  mutable w_budget : int;  (* expansion fuel *)
}

let record_access ctx kind obj (loc : Location.t) =
  let entry = (obj, file_of loc, line_of loc) in
  let mem l = List.exists (fun (o, _, _) -> o = obj) l in
  match kind with
  | E.Read ->
      if not (mem ctx.w_acc.ac_reads) then
        ctx.w_acc.ac_reads <- entry :: ctx.w_acc.ac_reads
  | E.Write ->
      if not (mem ctx.w_acc.ac_writes) then
        ctx.w_acc.ac_writes <- entry :: ctx.w_acc.ac_writes

(* Stages reach shared helpers along several expansion paths; one
   finding per (rule, site) is enough. *)
let add_finding ctx f =
  if
    not
      (List.exists
         (fun g ->
           g.f_rule = f.f_rule && g.f_file = f.f_file && g.f_line = f.f_line)
         ctx.w_acc.ac_findings)
  then ctx.w_acc.ac_findings <- f :: ctx.w_acc.ac_findings

let lines_for ctx file =
  match Hashtbl.find_opt ctx.w_lines file with
  | Some l -> l
  | None ->
      let l = file_lines file in
      Hashtbl.replace ctx.w_lines file l;
      l

(* --- Collecting top-level functions --------------------------------- *)

let rec strip_fun acc (e : Parsetree.expression) =
  match e.pexp_desc with
  | Pexp_fun (lbl, dflt, pat, body) ->
      ignore dflt;
      strip_fun ((lbl, pat) :: acc) body
  | Pexp_newtype (_, body) -> strip_fun acc body
  | Pexp_constraint (body, _) -> strip_fun acc body
  | _ -> (List.rev acc, e)

let collect_fns (str : Parsetree.structure) =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (_, vbs) ->
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var name -> (
                  match strip_fun [] vb.pvb_expr with
                  | [], _ -> ()  (* not a function *)
                  | params, body ->
                      Hashtbl.replace tbl name.txt
                        { fn_params = params; fn_body = body })
              | _ -> ())
            vbs
      | _ -> ())
    str;
  tbl

(* --- Pattern binding ------------------------------------------------- *)

let rec pat_vars (p : Parsetree.pattern) =
  match p.ppat_desc with
  | Ppat_var v -> [ v.txt ]
  | Ppat_alias (p, v) -> v.txt :: pat_vars p
  | Ppat_tuple ps -> List.concat_map pat_vars ps
  | Ppat_construct (_, Some (_, p)) -> pat_vars p
  | Ppat_variant (_, Some p) -> pat_vars p
  | Ppat_record (fields, _) -> List.concat_map (fun (_, p) -> pat_vars p) fields
  | Ppat_array ps -> List.concat_map pat_vars ps
  | Ppat_or (a, b) -> pat_vars a @ pat_vars b
  | Ppat_constraint (p, _) -> pat_vars p
  | Ppat_lazy p | Ppat_open (_, p) | Ppat_exception p -> pat_vars p
  | _ -> []

(* Bind a pattern against an abstract value. Only the shapes the
   datapath uses carry information: [Some cs] on a connection option
   projects to the connection tag; everything else binds opaque. *)
let rec bind_pat env (p : Parsetree.pattern) tag =
  match p.ppat_desc with
  | Ppat_var v -> (v.txt, tag) :: env
  | Ppat_alias (p, v) -> bind_pat ((v.txt, tag) :: env) p tag
  | Ppat_constraint (p, _) -> bind_pat env p tag
  | Ppat_construct (lid, Some (_, sub)) ->
      let sub_tag =
        match (lid_last lid.txt, tag) with
        | Some "Some", T_conn_opt -> T_conn
        | _ -> T_none
      in
      bind_pat env sub sub_tag
  | _ -> List.fold_left (fun env v -> (v, T_none) :: env) env (pat_vars p)

(* --- Module-operation effect mapping -------------------------------- *)

let starts_with pfx s =
  String.length s >= String.length pfx
  && String.sub s 0 (String.length pfx) = pfx

(* Blocking and per-segment-allocation call patterns for the hygiene
   lint. *)
let blocking_modules = [ "Unix"; "Thread"; "Mutex"; "Condition" ]

let blocking_bare =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "read_line"; "input_line"; "open_in"; "open_out"; "exit";
  ]

let alloc_calls =
  [
    ("Hashtbl", "create"); ("Fifo", "create"); ("Buffer", "create");
    ("Stack", "create"); ("Array", "make"); ("Array", "init");
    ("Bytes", "make"); ("Bytes", "create");
  ]

let is_blocking (m, f) =
  List.mem m blocking_modules
  || ((m = "" || m = "Stdlib") && List.mem f blocking_bare)
  || (m = "Printf" && f = "printf")
  || (m = "Format" && f = "printf")
  || (m = "Sys" && f = "command")

let is_alloc (m, f) = List.mem (m, f) alloc_calls

(* --- The walker ------------------------------------------------------ *)

(* Witness detection: a call that carries both a literal
   [Effects.<Obj>] and a literal [Effects.Read]/[Effects.Write]
   argument is a sanitizer access hook; the constructor pair IS the
   access. Only direct constructor arguments count (nested calls
   report at their own apply). *)
let witness_of_args args =
  let find f =
    List.find_map
      (fun ((_ : Asttypes.arg_label), (a : Parsetree.expression)) ->
        match a.pexp_desc with
        | Pexp_construct (lid, None) -> (
            match lid_parts lid.txt with
            | [ x ] -> f x
            | [ m; x ] when m = "Effects" || m = "E" -> f x
            | _ -> None)
        | _ -> None)
      args
  in
  let obj = find (fun x -> List.assoc_opt x obj_constructors) in
  let kind =
    find (function
      | "Read" -> Some E.Read
      | "Write" -> Some E.Write
      | _ -> None)
  in
  match (obj, kind) with Some o, Some k -> Some (o, k) | _ -> None

let rec walk ctx (ms : mod_scope) env seen (e : Parsetree.expression) : tag =
  let w = walk ctx ms env seen in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x; _ } -> (
      match List.assoc_opt x env with Some t -> t | None -> T_none)
  | Pexp_ident _ | Pexp_constant _ -> T_none
  | Pexp_construct (lid, arg) -> (
      let at = match arg with Some a -> Some (w a) | None -> None in
      match (lid_last lid.txt, at) with
      | Some "Some", Some T_conn -> T_conn_opt
      | _ -> T_none)
  | Pexp_field (recv, fld) -> walk_field ctx ms env seen recv fld e.pexp_loc
  | Pexp_setfield (recv, fld, v) ->
      ignore (w v);
      walk_setfield ctx ms env seen recv fld e.pexp_loc;
      T_none
  | Pexp_apply (head, args) -> walk_apply ctx ms env seen head args e.pexp_loc
  | Pexp_let (rf, vbs, body) ->
      let env' = walk_bindings ctx ms env seen rf vbs in
      walk ctx ms env' seen body
  | Pexp_fun (_, dflt, pat, body) ->
      (* Closures are same-stage code: their bodies execute on behalf
         of the stage that built them (completion continuations), so
         walk them inline at definition. *)
      (match dflt with Some d -> ignore (w d) | None -> ());
      let env' = bind_pat env pat T_none in
      ignore (walk ctx ms env' seen body);
      T_none
  | Pexp_function cases ->
      walk_cases ctx ms env seen [ T_none ] cases;
      T_none
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
      let tags =
        match scr.pexp_desc with
        | Pexp_tuple elems -> List.map w elems
        | _ -> [ w scr ]
      in
      walk_cases ctx ms env seen tags cases;
      T_none
  | Pexp_ifthenelse (c, e1, e2) ->
      ignore (w c);
      let t1 = w e1 in
      let t2 = match e2 with Some e -> Some (w e) | None -> None in
      if t2 = Some t1 then t1 else T_none
  | Pexp_sequence (a, b) ->
      ignore (w a);
      w b
  | Pexp_tuple es ->
      List.iter (fun e -> ignore (w e)) es;
      T_none
  | Pexp_constraint (e, _) -> w e
  | Pexp_open (_, e) -> w e
  | Pexp_while (c, body) ->
      ignore (w c);
      ignore (w body);
      T_none
  | Pexp_for (pat, lo, hi, _, body) ->
      ignore (w lo);
      ignore (w hi);
      ignore (walk ctx ms (bind_pat env pat T_none) seen body);
      T_none
  | _ ->
      (* Anything else: walk child expressions with the same
         environment. *)
      iter_child_exprs (fun e' -> ignore (w e')) e;
      T_none

and iter_child_exprs f e =
  let it =
    { Ast_iterator.default_iterator with expr = (fun _ e' -> f e') }
  in
  Ast_iterator.default_iterator.expr it e

and walk_bindings ctx ms env seen rf vbs =
  match rf with
  | Asttypes.Recursive ->
      (* Bind the names opaquely first (they may be closures), then
         walk the bodies. *)
      let env' =
        List.fold_left
          (fun env (vb : Parsetree.value_binding) ->
            List.fold_left
              (fun env v -> (v, T_none) :: env)
              env
              (pat_vars vb.pvb_pat))
          env vbs
      in
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          ignore (walk ctx ms env' seen vb.pvb_expr))
        vbs;
      env'
  | Asttypes.Nonrecursive ->
      List.fold_left
        (fun env_acc (vb : Parsetree.value_binding) ->
          match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
          | Ppat_tuple ps, Pexp_tuple es when List.length ps = List.length es
            ->
              List.fold_left2
                (fun env_acc p e ->
                  bind_pat env_acc p (walk ctx ms env seen e))
                env_acc ps es
          | _ ->
              let t = walk ctx ms env seen vb.pvb_expr in
              bind_pat env_acc vb.pvb_pat t)
        env vbs

and walk_cases ctx ms env seen tags cases =
  List.iter
    (fun (c : Parsetree.case) ->
      let env' =
        match (c.pc_lhs.ppat_desc, tags) with
        | Ppat_tuple ps, _ :: _ :: _ when List.length ps = List.length tags ->
            List.fold_left2 bind_pat env ps tags
        | _, [ t ] -> bind_pat env c.pc_lhs t
        | _ -> bind_pat env c.pc_lhs T_none
      in
      (match c.pc_guard with
      | Some g -> ignore (walk ctx ms env' seen g)
      | None -> ());
      ignore (walk ctx ms env' seen c.pc_rhs))
    cases

and walk_field ctx ms env seen recv fld loc =
  let rt = walk ctx ms env seen recv in
  let f = match lid_last fld.Location.txt with Some f -> f | None -> "" in
  match (rt, f) with
  | T_dp, "conns" -> T_conns_tbl
  | T_dp, "conn_db" -> T_conn_db
  | T_dp, "atx" -> T_atx_arr
  | T_dp, f when starts_with "st_" f ->
      record_access ctx E.Read E.Global_stats loc;
      T_none
  | T_dp, _ -> T_none
  | T_conn, "pre" -> T_pre
  | T_conn, "proto" -> T_proto
  | T_conn, "post" -> T_post
  | T_conn, _ -> T_none  (* idx, flow, active: identity, no region *)
  | T_pre, _ ->
      record_access ctx E.Read E.Conn_pre loc;
      T_none
  | T_proto, "reasm" ->
      record_access ctx E.Read E.Conn_proto loc;
      T_reasm
  | T_proto, _ ->
      record_access ctx E.Read E.Conn_proto loc;
      T_none
  | T_post, "rx_buf" ->
      record_access ctx E.Read E.Conn_post loc;
      T_rxbuf
  | T_post, "tx_buf" ->
      record_access ctx E.Read E.Conn_post loc;
      T_txbuf
  | T_post, _ ->
      record_access ctx E.Read E.Conn_post loc;
      T_none
  | _ -> T_none

and walk_setfield ctx ms env seen recv fld loc =
  let rt = walk ctx ms env seen recv in
  let f = match lid_last fld.Location.txt with Some f -> f | None -> "" in
  match (rt, f) with
  | T_dp, f when starts_with "st_" f ->
      record_access ctx E.Write E.Global_stats loc
  | T_pre, _ -> record_access ctx E.Write E.Conn_pre loc
  | T_proto, _ -> record_access ctx E.Write E.Conn_proto loc
  | T_post, _ -> record_access ctx E.Write E.Conn_post loc
  | _ -> ()

and walk_apply ctx ms env seen head args loc =
  (* Witness first: the constructor pair is the access, wherever the
     callee is. *)
  (match witness_of_args args with
  | Some (o, k) -> record_access ctx k o loc
  | None -> ());
  (* Walk arguments (including closure bodies) in the caller's
     scope. *)
  let arg_tags =
    List.map
      (fun (lbl, a) -> (lbl, walk ctx ms env seen a))
      args
  in
  let first_pos =
    List.find_map
      (fun (lbl, t) ->
        match lbl with Asttypes.Nolabel -> Some t | _ -> None)
      arg_tags
  in
  let a0 = match first_pos with Some t -> t | None -> T_none in
  match head.pexp_desc with
  | Pexp_ident lid -> (
      let name2 =
        match lid_last2 lid.Location.txt with
        | Some mf -> mf
        | None -> ("", "")
      in
      (* Locally-bound closures shadow everything. *)
      match
        match lid.Location.txt with
        | Longident.Lident x -> List.assoc_opt x env
        | _ -> None
      with
      | Some _ -> T_none
      | None -> (
          hygiene ctx name2 loc;
          match effect_of_call ctx name2 a0 loc with
          | Some t -> t
          | None -> expand_call ctx ms seen lid.Location.txt args arg_tags))
  | _ ->
      ignore (walk ctx ms env seen head);
      T_none

(* Known module operations on tracked values. Returns the result tag
   when the call is recognized, [None] to fall through to call
   expansion. *)
and effect_of_call ctx (m, f) a0 loc =
  let r = record_access ctx E.Read and wr = record_access ctx E.Write in
  match (m, f, a0) with
  (* The connection table: [Conn_table] (or [Hashtbl]) ops on
     [t.conns] only — the datapath's other tables (locks, GRO/ARX
     accumulators) are private to it, not a shared region. *)
  | ( ("Conn_table" | "Hashtbl"),
      ("find_opt" | "find" | "mem" | "length" | "iter" | "fold"),
      T_conns_tbl ) ->
      r E.Conn_db loc;
      Some (if f = "find_opt" then T_conn_opt
            else if f = "find" then T_conn
            else T_none)
  | ("Conn_table" | "Hashtbl"), ("replace" | "add" | "remove" | "reset"),
    T_conns_tbl ->
      r E.Conn_db loc;
      wr E.Conn_db loc;
      Some T_none
  | ("Conn_table" | "Hashtbl"), _, _ -> Some T_none  (* private tables *)
  | "Lookup", ("lookup" | "mem" | "find"), T_conn_db ->
      r E.Conn_db loc;
      Some T_none
  | "Lookup", ("add" | "remove"), T_conn_db ->
      r E.Conn_db loc;
      wr E.Conn_db loc;
      Some T_none
  | "Payload_buf", "write", _ ->
      wr (match a0 with T_txbuf -> E.Tx_payload | _ -> E.Rx_payload) loc;
      Some T_none
  | "Payload_buf", "read", _ ->
      r (match a0 with T_rxbuf -> E.Rx_payload | _ -> E.Tx_payload) loc;
      Some T_none
  | "Payload_buf", _, _ -> Some T_none  (* size &c.: metadata only *)
  | "Scheduler", ("peak_ready" | "stats" | "reordered"), _ ->
      r E.Sched_state loc;
      Some T_none
  | "Scheduler", "create", _ -> Some T_none
  | "Scheduler", _, _ ->
      (* wakeup, on_sent, credit_return, forget, set_interval,
         set_tracer: scheduler-state mutations. *)
      r E.Sched_state loc;
      wr E.Sched_state loc;
      Some T_none
  | "Ring", ("is_empty" | "length"), T_atx_ring ->
      r E.Desc_ring loc;
      Some T_none
  | "Ring", "push", T_atx_ring ->
      r E.Desc_ring loc;
      wr E.Desc_ring loc;
      Some T_none
  | "Ring", "pop", T_atx_ring ->
      r E.Desc_ring loc;
      wr E.Desc_ring loc;
      Some T_none
  | "Reassembly", ("process" | "force_advance"), T_reasm ->
      r E.Reasm loc;
      wr E.Reasm loc;
      Some T_none
  | "Reassembly", _, T_reasm ->
      r E.Reasm loc;
      Some T_none
  | "Array", "get", T_atx_arr -> Some T_atx_ring
  | _ -> None

and hygiene ctx (m, f) loc =
  if is_blocking (m, f) then
    add_finding ctx
      {
        f_rule = "stage-blocking-call";
        f_severity = Sev_error;
        f_stage = Some ctx.w_stage;
        f_file = file_of loc;
        f_line = line_of loc;
        f_msg =
          Printf.sprintf
            "stage body calls %s.%s, which can block or perform I/O" m f;
      }
  else if
    is_alloc (m, f)
    && not
         (exempted
            (lines_for ctx (file_of loc))
            "flexinfer: alloc-exempt" (line_of loc))
  then
    add_finding ctx
      {
        f_rule = "stage-alloc";
        f_severity = Sev_warning;
        f_stage = Some ctx.w_stage;
        f_file = file_of loc;
        f_line = line_of loc;
        f_msg =
          Printf.sprintf
            "stage body allocates with %s.%s per execution (annotate \
             '(* flexinfer: alloc-exempt *)' if amortized)"
            m f;
      }

(* Bounded call expansion: same-file calls expand transitively (the
   callee's effects belong to the calling stage); calls into a
   declared helper module expand crossing that one boundary; stage
   entries (pipeline hand-offs) and the excluded run-to-completion
   baseline never expand into a caller. *)
and expand_call ctx ms seen lid args arg_tags =
  let resolve =
    match lid with
    | Longident.Lident f -> (
        if
          ms.m_name <> "" && (List.mem f ctx.w_entries || List.mem f ctx.w_excluded)
          && Hashtbl.mem ms.m_fns f
        then None
        else
          match Hashtbl.find_opt ms.m_fns f with
          | Some fi -> Some (ms, f, fi)
          | None -> None)
    | _ -> (
        match lid_last2 lid with
        | Some (m, f) when not ms.m_crossed -> (
            match List.assoc_opt m ctx.w_helpers with
            | Some tbl -> (
                match Hashtbl.find_opt tbl f with
                | Some fi ->
                    Some ({ m_name = m; m_fns = tbl; m_crossed = true }, f, fi)
                | None -> None)
            | None -> None)
        | _ -> None)
  in
  match resolve with
  | None ->
      ignore args;
      T_none
  | Some (callee_ms, fname, fi) ->
      let key = (callee_ms.m_name, fname) in
      if List.mem key seen || ctx.w_budget <= 0 then T_none
      else begin
        ctx.w_budget <- ctx.w_budget - 1;
        let callee_env = bind_args fi.fn_params arg_tags in
        walk ctx callee_ms callee_env (key :: seen) fi.fn_body
      end

(* Match call arguments to parameters: labels by name, positional in
   order. Unmatched parameters stay unbound (opaque). *)
and bind_args params arg_tags =
  let n = List.length params in
  let consumed = Array.make n false in
  let params_arr = Array.of_list params in
  let label_name = function
    | Asttypes.Labelled s | Asttypes.Optional s -> Some s
    | Asttypes.Nolabel -> None
  in
  List.fold_left
    (fun env (albl, tag) ->
      let aname = label_name albl in
      let rec find i =
        if i >= n then None
        else if consumed.(i) then find (i + 1)
        else
          let plbl, pat = params_arr.(i) in
          match (label_name plbl, aname) with
          | None, None -> Some (i, pat)
          | Some p, Some a when p = a -> Some (i, pat)
          | _ -> find (i + 1)
      in
      match find 0 with
      | Some (i, pat) ->
          consumed.(i) <- true;
          bind_pat env pat tag
      | None -> env)
    [] arg_tags

(* --- Stage analysis -------------------------------------------------- *)

let default_entry_env params =
  List.fold_left
    (fun env ((_ : Asttypes.arg_label), pat) ->
      match pat.Parsetree.ppat_desc with
      | Ppat_var v when v.txt = "t" -> (v.txt, T_dp) :: env
      | Ppat_var v when v.txt = "cs" || v.txt = "conn_state" ->
          (v.txt, T_conn) :: env
      | _ ->
          List.fold_left (fun env v -> (v, T_none) :: env) env (pat_vars pat))
    [] params

let dedup_objs l =
  List.rev
    (List.fold_left (fun acc o -> if List.mem o acc then acc else o :: acc) [] l)

(* Infer per-stage footprints from source.

   [helper_files] maps helper module names to paths; [stage_map] lists
   each stage's entry functions: a bare name is in [dp_file], a
   "Module.fn" one in that helper module. Returns the footprints plus
   the analysis findings (hygiene lint, missing entries). *)
let infer_footprints ~dp_file
    ?(helper_files : (string * string) list = [])
    ?(stage_map = Pipeline.stage_map Pipeline.builtin)
    ?(excluded = Pipeline.excluded) () =
  match parse_impl dp_file with
  | Error e -> Error e
  | Ok str -> (
      let helper_results =
        List.map (fun (m, p) -> (m, parse_impl p)) helper_files
      in
      match
        List.find_map
          (fun (_, r) -> match r with Error e -> Some e | Ok _ -> None)
          helper_results
      with
      | Some e -> Error e
      | None ->
          let helpers =
            List.map
              (fun (m, r) ->
                match r with
                | Ok s -> (m, collect_fns s)
                | Error _ -> assert false)
              helper_results
          in
          let dp_fns = collect_fns str in
          let dp_mod = module_of_path dp_file in
          let entries = List.concat_map snd stage_map in
          let lines_cache = Hashtbl.create 8 in
          let analyze (stage, stage_entries) =
            let acc = { ac_reads = []; ac_writes = []; ac_findings = [] } in
            let ctx =
              {
                w_stage = stage;
                w_entries = entries;
                w_excluded = excluded;
                w_helpers = helpers;
                w_acc = acc;
                w_lines = lines_cache;
                w_budget = 4000;
              }
            in
            let dp_ms =
              { m_name = dp_mod; m_fns = dp_fns; m_crossed = false }
            in
            (* A "Module.fn" entry is a helper's function, walked as one
               boundary crossed. *)
            let resolve entry =
              match String.split_on_char '.' entry with
              | [ m; fn ] ->
                  let fns = List.assoc_opt m helpers in
                  ( { m_name = m; m_crossed = true;
                      m_fns = Option.value fns ~default:(Hashtbl.create 0) },
                    fn,
                    Option.value (List.assoc_opt m helper_files) ~default:m )
              | _ -> (dp_ms, entry, dp_file)
            in
            List.iter
              (fun entry ->
                let ms, fn, file = resolve entry in
                match Hashtbl.find_opt ms.m_fns fn with
                | None ->
                    acc.ac_findings <-
                      {
                        f_rule = "missing-entry";
                        f_severity = Sev_error;
                        f_stage = Some stage;
                        f_file = file;
                        f_line = 1;
                        f_msg =
                          Printf.sprintf
                            "stage entry function '%s' not found in %s \
                             (renamed? update the stage map)"
                            fn file;
                      }
                      :: acc.ac_findings
                | Some fi ->
                    let env = default_entry_env fi.fn_params in
                    ignore (walk ctx ms env [ (ms.m_name, fn) ] fi.fn_body))
              stage_entries;
            ( {
                fp_stage = stage;
                fp_reads = dedup_objs (List.map (fun (o, _, _) -> o) acc.ac_reads);
                fp_writes =
                  dedup_objs (List.map (fun (o, _, _) -> o) acc.ac_writes);
              },
              acc )
          in
          let results = List.map analyze stage_map in
          let footprints = List.map fst results in
          let findings =
            List.concat_map (fun (_, acc) -> List.rev acc.ac_findings) results
          in
          let locs =
            List.concat_map
              (fun (fp, acc) ->
                List.map (fun (o, f, l) -> ((fp.fp_stage, E.Read, o), (f, l)))
                  acc.ac_reads
                @ List.map
                    (fun (o, f, l) -> ((fp.fp_stage, E.Write, o), (f, l)))
                    acc.ac_writes)
              results
          in
          Ok (footprints, findings, locs))

(* Diff inferred footprints against declared contracts. Read
   conformance matches FlexSan layer 2: a declared write covers
   reads of the same object. *)
let diff_contracts ~(declared : E.contract list) ~footprints ~locs ~dp_file =
  let loc_of key =
    match List.assoc_opt key locs with
    | Some (f, l) -> (f, l)
    | None -> (dp_file, 0)
  in
  List.concat_map
    (fun (fp : footprint) ->
      match
        List.find_opt (fun (c : E.contract) -> c.c_stage = fp.fp_stage) declared
      with
      | None ->
          [
            {
              f_rule = "unknown-stage";
              f_severity = Sev_error;
              f_stage = Some fp.fp_stage;
              f_file = dp_file;
              f_line = 0;
              f_msg =
                Printf.sprintf "no declared contract for stage '%s'"
                  fp.fp_stage;
            };
          ]
      | Some c ->
          let undeclared_writes =
            List.filter (fun o -> not (E.mem o c.c_writes)) fp.fp_writes
          in
          let undeclared_reads =
            List.filter
              (fun o -> not (E.mem o c.c_reads || E.mem o c.c_writes))
              fp.fp_reads
          in
          let drift_reads =
            List.filter
              (fun o ->
                not
                  (List.exists (fun i -> E.obj_tag i = E.obj_tag o) fp.fp_reads
                  || List.exists
                       (fun i -> E.obj_tag i = E.obj_tag o)
                       fp.fp_writes))
              c.c_reads
          in
          let drift_writes =
            List.filter
              (fun o ->
                not
                  (List.exists (fun i -> E.obj_tag i = E.obj_tag o) fp.fp_writes))
              c.c_writes
          in
          List.map
            (fun o ->
              let file, line = loc_of (fp.fp_stage, E.Write, o) in
              {
                f_rule = "undeclared-write";
                f_severity = Sev_error;
                f_stage = Some fp.fp_stage;
                f_file = file;
                f_line = line;
                f_msg =
                  Printf.sprintf
                    "inferred write to %s is not in the declared contract \
                     (FlexProve's interference proof is void)"
                    (E.obj_name o);
              })
            undeclared_writes
          @ List.map
              (fun o ->
                let file, line = loc_of (fp.fp_stage, E.Read, o) in
                {
                  f_rule = "undeclared-read";
                  f_severity = Sev_error;
                  f_stage = Some fp.fp_stage;
                  f_file = file;
                  f_line = line;
                  f_msg =
                    Printf.sprintf
                      "inferred read of %s is not in the declared contract"
                      (E.obj_name o);
                })
              undeclared_reads
          @ List.map
              (fun o ->
                {
                  f_rule = "contract-drift";
                  f_severity = Sev_warning;
                  f_stage = Some fp.fp_stage;
                  f_file = dp_file;
                  f_line = 0;
                  f_msg =
                    Printf.sprintf
                      "declared read of %s never inferred from the stage \
                       body (stale declaration?)"
                      (E.obj_name o);
                })
              drift_reads
          @ List.map
              (fun o ->
                {
                  f_rule = "contract-drift";
                  f_severity = Sev_warning;
                  f_stage = Some fp.fp_stage;
                  f_file = dp_file;
                  f_line = 0;
                  f_msg =
                    Printf.sprintf
                      "declared write of %s never inferred from the stage \
                       body (stale declaration?)"
                      (E.obj_name o);
                })
              drift_writes)
    footprints

(* ==================================================================== *)
(* Seq32 wrap-safety lint                                               *)
(* ==================================================================== *)

type seq_tag = S_seq | S_opt | S_carrier

let seq_tag_name = function
  | S_seq -> "Seq32.t"
  | S_opt -> "Seq32.t option"
  | S_carrier -> "a value carrying Seq32.t"

type seeds = {
  sd_fields : (string, seq_tag) Hashtbl.t;  (* unambiguous field names *)
  sd_fns : (string * string, seq_tag) Hashtbl.t;  (* (Module, fn) results *)
}

(* Classify a core type: does it denote Seq32.t, an option of it, or
   a structure mentioning it? *)
let rec ct_verdict (ct : Parsetree.core_type) =
  match ct.ptyp_desc with
  | Ptyp_constr (lid, args) -> (
      match lid_last2 lid.Location.txt with
      | Some ("Seq32", "t") -> Some S_seq
      | Some (_, "option") -> (
          match args with
          | [ a ] -> (
              match ct_verdict a with
              | Some S_seq -> Some S_opt
              | Some _ -> Some S_carrier
              | None -> None)
          | _ -> None)
      | _ ->
          if List.exists (fun a -> ct_verdict a <> None) args then
            Some S_carrier
          else None)
  | Ptyp_tuple l ->
      if List.exists (fun a -> ct_verdict a <> None) l then Some S_carrier
      else None
  | Ptyp_alias (a, _) | Ptyp_poly (_, a) -> ct_verdict a
  | _ -> None

let rec arrow_result (ct : Parsetree.core_type) =
  match ct.ptyp_desc with
  | Ptyp_arrow (_, _, r) -> arrow_result r
  | Ptyp_poly (_, a) -> arrow_result a
  | _ -> ct

(* Seed from type declarations (record fields) and value signatures
   (function results). Field names seen with conflicting verdicts
   across the scanned sources are ambiguous and dropped. *)
let seed_files paths =
  let field_votes : (string, seq_tag option list) Hashtbl.t =
    Hashtbl.create 64
  in
  let fns = Hashtbl.create 64 in
  let vote name v =
    let cur =
      match Hashtbl.find_opt field_votes name with Some l -> l | None -> []
    in
    Hashtbl.replace field_votes name (v :: cur)
  in
  let scan_type_decl (td : Parsetree.type_declaration) =
    match td.ptype_kind with
    | Ptype_record labels ->
        List.iter
          (fun (ld : Parsetree.label_declaration) ->
            vote ld.pld_name.txt (ct_verdict ld.pld_type))
          labels
    | _ -> ()
  in
  let scan_val modname (vd : Parsetree.value_description) =
    match ct_verdict (arrow_result vd.pval_type) with
    | Some v -> Hashtbl.replace fns (modname, vd.pval_name.txt) v
    | None -> ()
  in
  List.iter
    (fun path ->
      let modname = module_of_path path in
      if Filename.check_suffix path ".mli" then
        match parse_intf path with
        | Error _ -> ()
        | Ok sg ->
            List.iter
              (fun (item : Parsetree.signature_item) ->
                match item.psig_desc with
                | Psig_type (_, tds) -> List.iter scan_type_decl tds
                | Psig_value vd -> scan_val modname vd
                | _ -> ())
              sg
      else
        match parse_impl path with
        | Error _ -> ()
        | Ok str ->
            List.iter
              (fun (item : Parsetree.structure_item) ->
                match item.pstr_desc with
                | Pstr_type (_, tds) -> List.iter scan_type_decl tds
                | _ -> ())
              str)
    paths;
  let fields = Hashtbl.create 64 in
  Hashtbl.iter
    (fun name votes ->
      (* flexinfer: poly-compare-exempt — dedup of tag variants *)
      match List.sort_uniq compare votes with
      | [ Some v ] -> Hashtbl.replace fields name v
      | _ -> ()  (* ambiguous across records, or never Seq32 *))
    field_votes;
  { sd_fields = fields; sd_fns = fns }

let cmp_ops = [ "="; "<>"; "<"; ">"; "<="; ">="; "=="; "!=" ]
let cmp_fns = [ "compare"; "min"; "max" ]

let seq32_marker = "flexinfer: seq32-exempt"
let poly_marker = "flexinfer: poly-compare-exempt"

type seq_ctx = {
  q_seeds : seeds;
  q_mod : string;  (* module of the file being linted *)
  q_lines : string array;
  mutable q_top : string list;  (* names bound by earlier top-level lets *)
  mutable q_findings : finding list;
  mutable q_poly : finding list;  (* poly-compare hygiene findings *)
  mutable q_exempted : int;
}

(* Stage hygiene, file-wide: a bare [max]/[min]/[compare] is
   [Stdlib]'s polymorphic one, which calls [caml_greaterequal] or
   [compare_val] even on ints. [Int.max], [Float.min],
   [String.compare] and friends are typed and cheap. A local or
   top-level rebinding of the name is not flagged. *)
let poly_compare ctx env (lid : Longident.t) loc =
  let flagged =
    match lid with
    | Longident.Lident f ->
        List.mem f cmp_fns
        && (not (List.mem_assoc f env))
        && not (List.mem f ctx.q_top)
    | Longident.Ldot (Longident.Lident "Stdlib", f) -> List.mem f cmp_fns
    | _ -> false
  in
  if flagged && not (exempted ctx.q_lines poly_marker (line_of loc)) then
    let f = Option.value ~default:"" (lid_last lid) in
    ctx.q_poly <-
      {
        f_rule = "poly-compare";
        f_severity = Sev_warning;
        f_stage = None;
        f_file = file_of loc;
        f_line = line_of loc;
        f_msg =
          Printf.sprintf
            "bare '%s' is Stdlib's polymorphic %s (a C call per use); use \
             Int.%s, Float.%s or a typed compare (or annotate '(* %s *)')"
            f f f f poly_marker;
      }
      :: ctx.q_poly

let rec swalk ctx env (e : Parsetree.expression) : seq_tag option =
  let w = swalk ctx env in
  match e.pexp_desc with
  | Pexp_ident { txt = Longident.Lident x as lid; loc } -> (
      poly_compare ctx env lid loc;
      match List.assoc_opt x env with Some t -> t | None -> None)
  | Pexp_ident { txt = lid; loc } ->
      poly_compare ctx env lid loc;
      None
  | Pexp_constant _ -> None
  | Pexp_field (recv, fld) -> (
      ignore (w recv);
      match lid_last fld.Location.txt with
      | Some f -> Hashtbl.find_opt ctx.q_seeds.sd_fields f
      | None -> None)
  | Pexp_setfield (recv, _, v) ->
      ignore (w recv);
      ignore (w v);
      None
  | Pexp_construct (lid, arg) -> (
      let at = Option.map w arg in
      match (lid_last lid.txt, at) with
      | Some "Some", Some (Some S_seq) -> Some S_opt
      | Some "Some", Some (Some _) -> Some S_carrier
      | _ -> None)
  | Pexp_tuple es ->
      if List.exists (fun e -> w e <> None) es then Some S_carrier else None
  | Pexp_apply (head, args) -> swalk_apply ctx env head args e.pexp_loc
  | Pexp_let (rf, vbs, body) ->
      let env' = swalk_bindings ctx env rf vbs in
      swalk ctx env' body
  | Pexp_fun (_, dflt, pat, body) ->
      (match dflt with Some d -> ignore (w d) | None -> ());
      ignore (swalk ctx (sbind env pat None) body);
      None
  | Pexp_function cases ->
      swalk_cases ctx env None cases;
      None
  | Pexp_match (scr, cases) | Pexp_try (scr, cases) ->
      let st = w scr in
      swalk_cases ctx env st cases;
      None
  | Pexp_ifthenelse (c, e1, e2) -> (
      ignore (w c);
      let t1 = w e1 in
      match e2 with
      | Some e -> if w e = t1 then t1 else None
      | None -> None)
  | Pexp_sequence (a, b) ->
      ignore (w a);
      w b
  | Pexp_constraint (e, ct) -> (
      let t = w e in
      match ct_verdict ct with Some v -> Some v | None -> t)
  | Pexp_open (_, e) -> w e
  | _ ->
      iter_child_exprs (fun e' -> ignore (w e')) e;
      None

and sbind env (p : Parsetree.pattern) tag =
  match p.ppat_desc with
  | Ppat_var v -> (v.txt, tag) :: env
  | Ppat_alias (p, v) -> sbind ((v.txt, tag) :: env) p tag
  | Ppat_constraint (p, ct) -> (
      match ct_verdict ct with
      | Some v -> sbind env p (Some v)
      | None -> sbind env p tag)
  | Ppat_construct (lid, Some (_, sub)) ->
      let sub_tag =
        match (lid_last lid.txt, tag) with
        | Some "Some", Some S_opt -> Some S_seq
        | _ -> None
      in
      sbind env sub sub_tag
  | Ppat_tuple ps -> List.fold_left (fun env p -> sbind env p None) env ps
  | _ -> List.fold_left (fun env v -> (v, None) :: env) env (pat_vars p)

and swalk_bindings ctx env rf vbs =
  match rf with
  | Asttypes.Recursive ->
      let env' =
        List.fold_left
          (fun env (vb : Parsetree.value_binding) ->
            List.fold_left (fun env v -> (v, None) :: env) env
              (pat_vars vb.pvb_pat))
          env vbs
      in
      List.iter
        (fun (vb : Parsetree.value_binding) ->
          ignore (swalk ctx env' vb.pvb_expr))
        vbs;
      env'
  | Asttypes.Nonrecursive ->
      List.fold_left
        (fun env_acc (vb : Parsetree.value_binding) ->
          match (vb.pvb_pat.ppat_desc, vb.pvb_expr.pexp_desc) with
          | Ppat_tuple ps, Pexp_tuple es when List.length ps = List.length es
            ->
              List.fold_left2
                (fun env_acc p e -> sbind env_acc p (swalk ctx env e))
                env_acc ps es
          | _ ->
              let t = swalk ctx env vb.pvb_expr in
              sbind env_acc vb.pvb_pat t)
        env vbs

and swalk_cases ctx env scrutinee cases =
  List.iter
    (fun (c : Parsetree.case) ->
      let env' = sbind env c.pc_lhs scrutinee in
      (match c.pc_guard with Some g -> ignore (swalk ctx env' g) | None -> ());
      ignore (swalk ctx env' c.pc_rhs))
    cases

and swalk_apply ctx env head args loc =
  let arg_tags = List.map (fun (_, a) -> swalk ctx env a) args in
  match head.pexp_desc with
  | Pexp_ident lid -> (
      let shadowed =
        match lid.Location.txt with
        | Longident.Lident x -> List.mem_assoc x env
        | _ -> false
      in
      let m, f =
        match lid_last2 lid.Location.txt with
        | Some mf -> mf
        | None -> ("", "")
      in
      poly_compare ctx env lid.Location.txt lid.Location.loc;
      (* [Int.compare] &c. are as wrap-unsafe on Seq32 values as the
         polymorphic ones. *)
      let is_structural_cmp =
        (not shadowed)
        && (((m = "" || m = "Stdlib")
            && (List.mem f cmp_ops || List.mem f cmp_fns))
           || (m = "Int" && List.mem f cmp_fns))
      in
      if is_structural_cmp then begin
        (match
           List.find_map
             (fun t -> match t with Some v -> Some v | None -> None)
             arg_tags
         with
        | Some v ->
            let line = line_of loc in
            if exempted ctx.q_lines seq32_marker line then
              ctx.q_exempted <- ctx.q_exempted + 1
            else
              ctx.q_findings <-
                {
                  f_rule = "seq32-structural-compare";
                  f_severity = Sev_error;
                  f_stage = None;
                  f_file = file_of loc;
                  f_line = line;
                  f_msg =
                    Printf.sprintf
                      "structural '%s' on %s breaks at the 2^32 sequence \
                       wrap; use Seq32.lt/le/gt/ge/max/min/diff (or \
                       annotate '(* %s *)')"
                      f (seq_tag_name v) seq32_marker;
                }
                :: ctx.q_findings
        | None -> ());
        (* Result of min/max keeps the operand's taint. *)
        if List.mem f [ "min"; "max" ] then
          List.find_map (fun t -> t) arg_tags
        else None
      end
      else if shadowed then None
      else
        let key = if m = "" then (ctx.q_mod, f) else (m, f) in
        Hashtbl.find_opt ctx.q_seeds.sd_fns key)
  | _ ->
      ignore (swalk ctx env head);
      None

let parse_error path msg =
  {
    f_rule = "parse-error";
    f_severity = Sev_error;
    f_stage = None;
    f_file = path;
    f_line = 1;
    f_msg = msg;
  }

(* Walks a structure's top-level bindings, and those of the modules it
   defines (submodules, functor bodies and arguments): a nested
   module's names shadow only inside it. *)
let rec lint_structure ctx (str : Parsetree.structure) =
  List.iter
    (fun (item : Parsetree.structure_item) ->
      match item.pstr_desc with
      | Pstr_value (rf, vbs) ->
          ignore (swalk_bindings ctx [] rf vbs);
          List.iter
            (fun (vb : Parsetree.value_binding) ->
              ctx.q_top <- pat_vars vb.pvb_pat @ ctx.q_top)
            vbs
      | Pstr_module mb -> lint_module ctx mb.pmb_expr
      | Pstr_recmodule mbs ->
          List.iter
            (fun (mb : Parsetree.module_binding) -> lint_module ctx mb.pmb_expr)
            mbs
      | _ -> ())
    str

and lint_module ctx (me : Parsetree.module_expr) =
  match me.pmod_desc with
  | Pmod_structure str ->
      let top = ctx.q_top in
      lint_structure ctx str;
      ctx.q_top <- top
  | Pmod_constraint (me, _) | Pmod_functor (_, me) -> lint_module ctx me
  | Pmod_apply (f, arg) ->
      lint_module ctx f;
      lint_module ctx arg
  | _ -> ()

(* Lint a set of implementation files, seeding types from
   [seed_paths] (defaults to the linted files plus their [.mli]s).
   Returns the Seq32 findings, the exempted Seq32 sites and the
   poly-compare findings: one walk serves both lints. *)
let lint_files ?seed_paths ~files () =
  let seed_paths =
    match seed_paths with
    | Some p -> p
    | None ->
        List.concat_map
          (fun f ->
            let mli = Filename.remove_extension f ^ ".mli" in
            if Sys.file_exists mli then [ f; mli ] else [ f ])
          files
  in
  let seeds = seed_files seed_paths in
  let results =
    List.map
      (fun path ->
        match parse_impl path with
        | Error e -> ([ parse_error path e ], 0, [])
        | Ok str ->
            let ctx =
              {
                q_seeds = seeds;
                q_mod = module_of_path path;
                q_lines = file_lines path;
                q_top = [];
                q_findings = [];
                q_poly = [];
                q_exempted = 0;
              }
            in
            lint_structure ctx str;
            (List.rev ctx.q_findings, ctx.q_exempted, List.rev ctx.q_poly))
      files
  in
  ( List.concat_map (fun (f, _, _) -> f) results,
    List.fold_left (fun n (_, e, _) -> n + e) 0 results,
    List.concat_map (fun (_, _, p) -> p) results )

let lint_seq32 ?seed_paths ~files () =
  let findings, exempted, _ = lint_files ?seed_paths ~files () in
  (findings, exempted)

let lint_poly_compare ~files () =
  let _, _, poly = lint_files ~files () in
  poly

(* --- stdlib-queue ---------------------------------------------------- *)

(* Whether [lid] names [Stdlib.Queue] or something in it. A bare
   [Queue] is a module only where a module is expected: elsewhere it is
   a constructor (the graph IR's edge kind). *)
let is_stdlib_queue ~is_module lid =
  match lid_parts lid with
  | "Stdlib" :: "Queue" :: rest | "Queue" :: rest -> is_module || rest <> []
  | _ -> false

(* Every use of [Stdlib.Queue], at error severity and with no exemption
   marker: a long-lived [Queue] promotes every value pushed through it
   (DESIGN.md §18), and [Sim.Fifo] is its drop-in replacement. *)
let lint_stdlib_queue ~files () =
  List.concat_map
    (fun path ->
      let findings = ref [] in
      let check ~is_module (lid : Longident.t Location.loc) =
        if is_stdlib_queue ~is_module lid.txt then
          findings :=
            {
              f_rule = "stdlib-queue";
              f_severity = Sev_error;
              f_stage = None;
              f_file = path;
              f_line = line_of lid.loc;
              f_msg =
                Printf.sprintf
                  "'%s' is Stdlib.Queue, whose popped cells stay linked: \
                   a long-lived queue promotes every value pushed \
                   through it; use Sim.Fifo"
                  (String.concat "." (lid_parts lid.txt));
            }
            :: !findings
      in
      let default = Ast_iterator.default_iterator in
      let it =
        {
          default with
          expr =
            (fun it e ->
              (match e.pexp_desc with
              | Pexp_ident lid | Pexp_construct (lid, _) ->
                  check ~is_module:false lid
              | _ -> ());
              default.expr it e);
          pat =
            (fun it p ->
              (match p.ppat_desc with
              | Ppat_construct (lid, _) -> check ~is_module:false lid
              | _ -> ());
              default.pat it p);
          typ =
            (fun it t ->
              (match t.ptyp_desc with
              | Ptyp_constr (lid, _) -> check ~is_module:false lid
              | _ -> ());
              default.typ it t);
          module_expr =
            (fun it m ->
              (match m.pmod_desc with
              | Pmod_ident lid -> check ~is_module:true lid
              | _ -> ());
              default.module_expr it m);
          open_description =
            (fun it o ->
              check ~is_module:true o.popen_expr;
              default.open_description it o);
        }
      in
      let parsed =
        if Filename.check_suffix path ".mli" then
          Result.map (it.signature it) (parse_intf path)
        else Result.map (it.structure it) (parse_impl path)
      in
      match parsed with
      | Ok () -> List.rev !findings
      | Error e -> [ parse_error path e ])
    files

(* ==================================================================== *)
(* Repository-level drivers                                             *)
(* ==================================================================== *)

(* Walk up from [start] (default cwd) to the repository root —
   identified by the datapath source the analysis is about. *)
let find_root ?start () =
  let rec up dir n =
    if n > 8 then None
    else if Sys.file_exists (Filename.concat dir "lib/flextoe/datapath.ml")
    then Some dir
    else
      let parent = Filename.dirname dir in
      if parent = dir then None else up parent (n + 1)
  in
  up (match start with Some s -> s | None -> Sys.getcwd ()) 0

let ml_files_in dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      List.sort String.compare
        (List.filter_map
           (fun f ->
             if Filename.check_suffix f ".ml" then
               Some (Filename.concat dir f)
             else None)
           (Array.to_list entries))

let seed_paths_in dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> []
  | entries ->
      List.sort String.compare
        (List.filter_map
           (fun f ->
             if Filename.check_suffix f ".ml" || Filename.check_suffix f ".mli"
             then Some (Filename.concat dir f)
             else None)
           (Array.to_list entries))

(* Every directory under lib/, sorted. *)
let lib_dirs root =
  let lib = Filename.concat root "lib" in
  match Sys.readdir lib with
  | exception Sys_error _ -> []
  | entries ->
      List.sort String.compare
        (List.filter Sys.is_directory
           (List.map (Filename.concat lib) (Array.to_list entries)))

(* The full FlexInfer run over a repository checkout: footprint
   inference + contract diff over the datapath, the Seq32 and
   poly-compare lints over lib/sim, lib/tcp, lib/nfp, lib/netsim,
   lib/host, lib/flextoe and lib/analysis, and
   the stdlib-queue lint over every directory under lib/. *)
type report = {
  rp_footprints : footprint list;
  rp_findings : finding list;
  rp_seq32_exempted : int;
  rp_files_linted : int;
}

let repo_dp_file root = Filename.concat root "lib/flextoe/datapath.ml"

let repo_helper_files root =
  List.filter_map
    (fun (m, rel) ->
      let p = Filename.concat root rel in
      if Sys.file_exists p then Some (m, p) else None)
    [
      ("Protocol", "lib/flextoe/protocol.ml");
      ("Control_plane", "lib/flextoe/control_plane.ml");
      ("Defect", "lib/flextoe/defect.ml");
    ]

(* Footprints of [pipeline]'s stage map diffed against its declared
   contracts, with no Seq32 sweep: the per-variant classification
   path, where the lint result would be identical every time. *)
let infer_repo_diff ?(pipeline = Pipeline.builtin) ~root () =
  let dp_file = repo_dp_file root in
  match
    infer_footprints ~dp_file ~helper_files:(repo_helper_files root)
      ~stage_map:(Pipeline.stage_map pipeline) ()
  with
  | Error e -> Error e
  | Ok (footprints, hygiene, locs) ->
      let declared = Pipeline.contracts pipeline in
      Ok
        ( footprints,
          hygiene @ diff_contracts ~declared ~footprints ~locs ~dp_file )

let analyze_repo ?pipeline ~root () =
  match infer_repo_diff ?pipeline ~root () with
  | Error e -> Error e
  | Ok (footprints, diff) ->
      let lint_dirs =
        List.map (Filename.concat root)
          [
            "lib/sim";
            "lib/tcp";
            "lib/nfp";
            "lib/netsim";
            "lib/host";
            "lib/flextoe";
            "lib/analysis";
          ]
      in
      let files = List.concat_map ml_files_in lint_dirs in
      let seq_findings, exempted, poly_findings =
        lint_files
          ~seed_paths:(List.concat_map seed_paths_in lint_dirs)
          ~files ()
      in
      let lib_files = List.concat_map seed_paths_in (lib_dirs root) in
      Ok
        {
          rp_footprints = footprints;
          rp_findings =
            diff @ seq_findings @ poly_findings
            @ lint_stdlib_queue ~files:lib_files ();
          rp_seq32_exempted = exempted;
          rp_files_linted = List.length lib_files;
        }

(* --- JSON ------------------------------------------------------------ *)

let finding_json f =
  Sim.Json.Obj
    [
      ("rule", Sim.Json.String f.f_rule);
      ("severity", Sim.Json.String (severity_name f.f_severity));
      ( "stage",
        match f.f_stage with
        | Some s -> Sim.Json.String s
        | None -> Sim.Json.Null );
      ("file", Sim.Json.String f.f_file);
      ("line", Sim.Json.Int f.f_line);
      ("msg", Sim.Json.String f.f_msg);
    ]

let footprint_json fp =
  let objs l = Sim.Json.List (List.map (fun o -> Sim.Json.String (E.obj_name o)) l) in
  Sim.Json.Obj
    [
      ("stage", Sim.Json.String fp.fp_stage);
      ("reads", objs fp.fp_reads);
      ("writes", objs fp.fp_writes);
    ]

let report_json r =
  Sim.Json.Obj
    [
      ("footprints", Sim.Json.List (List.map footprint_json r.rp_footprints));
      ("findings", Sim.Json.List (List.map finding_json r.rp_findings));
      ("seq32_exempted", Sim.Json.Int r.rp_seq32_exempted);
      ("files_linted", Sim.Json.Int r.rp_files_linted);
    ]
