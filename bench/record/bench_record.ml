module J = Sim.Json

type host = { cores : int; workers : int; rev : string; profile : string }

type t = {
  experiment : string;
  workload : string;
  host : host;
  metrics : (string * float) list;
}

(* Tags are excluded so the name is always the abbreviated commit; a
   tree with uncommitted changes gets "-dirty", so a record from an
   edited copy does not claim its base commit's source. *)
let git_rev () =
  match
    Unix.open_process_in
      "git describe --always --dirty --abbrev=7 --exclude='*' 2>/dev/null"
  with
  | exception Unix.Unix_error _ -> "unknown"
  | ic -> (
      let line = In_channel.input_line ic in
      match (Unix.close_process_in ic, line) with
      | Unix.WEXITED 0, Some rev when rev <> "" -> rev
      | _ -> "unknown")

let make ~experiment ~workload ~workers metrics =
  {
    experiment;
    workload;
    host =
      {
        cores = Domain.recommended_domain_count ();
        workers;
        rev = git_rev ();
        profile = Build_profile.name;
      };
    metrics;
  }

let lp_reach work =
  let largest = List.fold_left Float.max 0. work in
  if largest > 0. then List.fold_left ( +. ) 0. work /. largest else 1.

let par_threshold ~workers ~work =
  Float.min 3.0 (0.75 *. Float.min (float_of_int workers) (lp_reach work))

let series name label value xs =
  List.map (fun x -> (Printf.sprintf "%s.%d" name (label x), value x)) xs

let get t k = List.assoc_opt k t.metrics

(* Integral values (counts, byte sizes) print without a fraction. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then J.Int (int_of_float v)
  else J.Float v

let to_json t =
  J.Obj
    [
      ("experiment", J.String t.experiment);
      ("workload", J.String t.workload);
      ( "host",
        J.Obj
          [
            ("cores", J.Int t.host.cores);
            ("workers", J.Int t.host.workers);
            ("rev", J.String t.host.rev);
            ("profile", J.String t.host.profile);
          ] );
      ("metrics", J.Obj (List.map (fun (k, v) -> (k, number v)) t.metrics));
    ]

let of_json j =
  let ( let* ) = Result.bind in
  let field j k conv =
    Option.to_result ~none:("missing or ill-typed field " ^ k)
      (Option.bind (J.member k j) conv)
  in
  let* experiment = field j "experiment" J.to_string_opt in
  let* workload = field j "workload" J.to_string_opt in
  let* host = field j "host" Option.some in
  let* cores = field host "cores" J.to_int_opt in
  let* workers = field host "workers" J.to_int_opt in
  (* Records written before these two fields existed lack them. *)
  let provenance k =
    if Option.is_none (J.member k host) then Ok "unknown"
    else field host k J.to_string_opt
  in
  let* rev = provenance "rev" in
  let* profile = provenance "profile" in
  let* kvs = field j "metrics" J.to_obj_opt in
  let* metrics =
    List.fold_right
      (fun (k, v) acc ->
        let* acc = acc in
        match J.to_float_opt v with
        | Some f -> Ok ((k, f) :: acc)
        | None -> Error ("metric " ^ k ^ " is not a number"))
      kvs (Ok [])
  in
  Ok { experiment; workload; host = { cores; workers; rev; profile }; metrics }

let write path t =
  Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc (J.to_string_pretty (to_json t)))

let read path =
  match In_channel.with_open_text path In_channel.input_all with
  | exception Sys_error e -> Error e
  | s -> Result.bind (J.of_string s) of_json

(* --- Checks ----------------------------------------------------------- *)

type operand = Cur of string | Base of string | Num of float
type rel = Ge of float | Gt | Le | Eq

type check =
  | Check of string * operand * rel * operand
  | Skip of string * string

let check name lhs rel rhs = Check (name, lhs, rel, rhs)
let skip name why = Skip (name, why)

let holds rel a b =
  match rel with
  | Ge k -> a >= k *. b
  | Gt -> a > b
  | Le -> a <= b
  | Eq -> Float.equal a b

(* The operator as printed on a pass and on a failure. *)
let ops = function
  | Ge _ -> (">=", "<")
  | Gt -> (">", "<=")
  | Le -> ("<=", ">")
  | Eq -> ("=", "<>")

let fmt v =
  if Float.is_integer v then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.4f" v

let show o v =
  match o with
  | Num _ -> fmt v
  | Cur k -> Printf.sprintf "%s %s" k (fmt v)
  | Base k -> Printf.sprintf "baseline %s %s" k (fmt v)

let verdict value = function
  | Skip (name, why) -> (name, "SKIP", why)
  | Check (name, lhs, rel, rhs) -> (
      match (value lhs, value rhs) with
      | Error e, _ | _, Error e -> (name, "FAIL", e)
      | Ok a, Ok b ->
          let ok = holds rel a b in
          let pass_op, fail_op = ops rel in
          let scale =
            match rel with
            | Ge k when k <> 1. -> Printf.sprintf "%g x " k
            | _ -> ""
          in
          ( name,
            (if ok then "OK" else "FAIL"),
            Printf.sprintf "%s %s %s%s" (show lhs a)
              (if ok then pass_op else fail_op)
              scale (show rhs b) ))

let gate ~baseline ~out t checks =
  write out t;
  Printf.printf "wrote %s\n" out;
  let base = lazy (read baseline) in
  let key r k = Option.to_result ~none:("missing key " ^ k) (get r k) in
  let value = function
    | Num v -> Ok v
    | Cur k -> key t k
    | Base k ->
        Result.bind (Lazy.force base) (fun b -> key b k)
        |> Result.map_error (Printf.sprintf "baseline %s: %s" baseline)
  in
  List.fold_left
    (fun ok c ->
      let name, v, detail = verdict value c in
      Printf.printf "%-4s %-22s %s\n" v name detail;
      ok && v <> "FAIL")
    true checks
