type point = {
  group : string;
  name : string;
  mutable on : bool;
  mutable count : int;
}

(* A group's points by name, and how many of them are enabled. Keyed
   by group, then name, a lookup builds no key. *)
type group = { by_name : (string, point) Hashtbl.t; mutable enabled : int }

type t = {
  groups : (string, group) Hashtbl.t;
  mutable order : point list;  (* reverse registration order *)
  mutable n_enabled : int;
}

let create () = { groups = Hashtbl.create 16; order = []; n_enabled = 0 }

let register t ~group name =
  let g =
    match Hashtbl.find_opt t.groups group with
    | Some g -> g
    | None ->
        let g = { by_name = Hashtbl.create 8; enabled = 0 } in
        Hashtbl.replace t.groups group g;
        g
  in
  match Hashtbl.find_opt g.by_name name with
  | Some p -> p
  | None ->
      let p = { group; name; on = false; count = 0 } in
      Hashtbl.replace g.by_name name p;
      t.order <- p :: t.order;
      p

let find t ~group name = Hashtbl.find (Hashtbl.find t.groups group).by_name name
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
        let g = Hashtbl.find t.groups p.group in
        g.enabled <- g.enabled + d
      end)
    t.order;
  t.n_enabled

let enable t ?group ?name () = set_state t ?group ?name true
let disable t ?group ?name () = set_state t ?group ?name false
let enabled_count t = t.n_enabled

let group_enabled t group =
  match Hashtbl.find_opt t.groups group with Some g -> g.enabled | None -> 0

let hit p = if p.on then p.count <- p.count + 1
let hits p = p.count
let points t = List.rev t.order
let reset_counts t = List.iter (fun p -> p.count <- 0) t.order
