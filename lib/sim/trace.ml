type point = {
  group : string;
  name : string;
  mutable on : bool;
  mutable count : int;
}

type t = {
  tbl : (string * string, point) Hashtbl.t;
  mutable order : point list;  (* reverse registration order *)
  groups : (string, int ref) Hashtbl.t;  (* enabled points per group *)
  mutable n_enabled : int;
}

let create () =
  { tbl = Hashtbl.create 64; order = []; groups = Hashtbl.create 16;
    n_enabled = 0 }

let register t ~group name =
  match Hashtbl.find_opt t.tbl (group, name) with
  | Some p -> p
  | None ->
      let p = { group; name; on = false; count = 0 } in
      Hashtbl.replace t.tbl (group, name) p;
      if not (Hashtbl.mem t.groups group) then
        Hashtbl.replace t.groups group (ref 0);
      t.order <- p :: t.order;
      p

let find t ~group name = Hashtbl.find t.tbl (group, name)
let point_name p = p.group ^ ":" ^ p.name

let matches ?group ?name p =
  (match group with Some g -> p.group = g | None -> true)
  && match name with Some n -> p.name = n | None -> true

let set_state t ?group ?name on =
  let d = if on then 1 else -1 in
  List.iter
    (fun p ->
      if matches ?group ?name p && p.on <> on then begin
        p.on <- on;
        t.n_enabled <- t.n_enabled + d;
        let n = Hashtbl.find t.groups p.group in
        n := !n + d
      end)
    t.order;
  t.n_enabled

let enable t ?group ?name () = set_state t ?group ?name true
let disable t ?group ?name () = set_state t ?group ?name false
let enabled_count t = t.n_enabled

let group_enabled t group =
  match Hashtbl.find_opt t.groups group with Some n -> !n | None -> 0

let hit p = if p.on then p.count <- p.count + 1
let hits p = p.count
let points t = List.rev t.order
let reset_counts t = List.iter (fun p -> p.count <- 0) t.order
