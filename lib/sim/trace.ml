type point = {
  group : string;
  name : string;
  mutable on : bool;
  mutable count : int;
}

type event = { time : Time.t; point_name : string; conn : int; arg : int }

type subscription = {
  s_id : int;
  s_group : string option;
  s_fn : event -> unit;
  mutable s_active : bool;
}

type t = {
  tbl : (string * string, point) Hashtbl.t;
  mutable order : point list;  (* reverse registration order *)
  mutable subs : subscription list;  (* subscription order *)
  mutable next_sub_id : int;
  mutable n_enabled : int;
  mutable shards : shard list;  (* reverse creation order *)
}

(* A per-domain bounded buffer of tracepoint hits. Counter bumps and
   subscriber deliveries are deferred to [sync] so concurrent LPs
   never touch the shared registry state. *)
and shard = {
  sh_id : int;
  sh_capacity : int;
  mutable sh_buf : (point * event * int) list;  (* newest first, + gseq *)
  mutable sh_len : int;
  mutable sh_gseq : int;
  mutable sh_dropped : int;
}

let create () =
  {
    tbl = Hashtbl.create 64;
    order = [];
    subs = [];
    next_sub_id = 0;
    n_enabled = 0;
    shards = [];
  }

let register t ~group name =
  match Hashtbl.find_opt t.tbl (group, name) with
  | Some p -> p
  | None ->
      let p = { group; name; on = false; count = 0 } in
      Hashtbl.replace t.tbl (group, name) p;
      t.order <- p :: t.order;
      p

let point_name p = p.group ^ ":" ^ p.name

let matches ?group ?name p =
  (match group with Some g -> p.group = g | None -> true)
  && match name with Some n -> p.name = n | None -> true

let set_state t ?group ?name on =
  List.iter
    (fun p ->
      if matches ?group ?name p && p.on <> on then begin
        p.on <- on;
        t.n_enabled <- (t.n_enabled + if on then 1 else -1)
      end)
    t.order;
  t.n_enabled

let enable t ?group ?name () = set_state t ?group ?name true
let disable t ?group ?name () = set_state t ?group ?name false
let enabled_count t = t.n_enabled
let enabled p = p.on

(* --- Subscriptions ---------------------------------------------------- *)

let subscribe t ?group f =
  let s =
    { s_id = t.next_sub_id; s_group = group; s_fn = f; s_active = true }
  in
  t.next_sub_id <- t.next_sub_id + 1;
  (* Keep subscription order: deliveries happen oldest-first. *)
  t.subs <- t.subs @ [ s ];
  s

let unsubscribe t s =
  if s.s_active then begin
    s.s_active <- false;
    t.subs <- List.filter (fun s' -> s'.s_id <> s.s_id) t.subs
  end

let subscriber_count t = List.length t.subs

let deliver t p ev =
  List.iter
    (fun s ->
      match s.s_group with
      | Some g -> if g = p.group then s.s_fn ev
      | None -> s.s_fn ev)
    t.subs

let hit t p ~now ~conn ~arg =
  if p.on then begin
    p.count <- p.count + 1;
    match t.subs with
    | [] -> ()
    | _ -> deliver t p { time = now; point_name = point_name p; conn; arg }
  end

let hits p = p.count
let points t = List.rev t.order
let reset_counts t = List.iter (fun p -> p.count <- 0) t.order

(* --- Domain-safe shards ------------------------------------------------ *)

let shard t ?(capacity = 65_536) ~id () =
  let sh =
    {
      sh_id = id;
      sh_capacity = capacity;
      sh_buf = [];
      sh_len = 0;
      sh_gseq = 0;
      sh_dropped = 0;
    }
  in
  t.shards <- sh :: t.shards;
  sh

let shard_id sh = sh.sh_id
let shard_pending sh = sh.sh_len
let shard_dropped sh = sh.sh_dropped

let shard_hit sh p ~now ~conn ~arg =
  if p.on then begin
    if sh.sh_len < sh.sh_capacity then begin
      let ev = { time = now; point_name = point_name p; conn; arg } in
      sh.sh_buf <- (p, ev, sh.sh_gseq) :: sh.sh_buf;
      sh.sh_gseq <- sh.sh_gseq + 1;
      sh.sh_len <- sh.sh_len + 1
    end
    else sh.sh_dropped <- sh.sh_dropped + 1
  end

(* Merge at a sync point: counter bumps and subscriber deliveries for
   every buffered hit, in (time, gseq, shard id) order — fixed by the
   LPs' deterministic executions, not by domain interleaving.
   Subscriptions themselves are untouched: the same handles observe
   sharded and unsharded hits alike. *)
let sync t =
  let entries =
    List.concat_map
      (fun sh ->
        let es = List.rev_map (fun (p, ev, g) -> (sh.sh_id, p, ev, g)) sh.sh_buf in
        sh.sh_buf <- [];
        sh.sh_len <- 0;
        es)
      (List.rev t.shards)
  in
  let entries =
    List.stable_sort
      (fun (id1, _, ev1, g1) (id2, _, ev2, g2) ->
        match Int.compare ev1.time ev2.time with
        | 0 -> (
            match Int.compare g1 g2 with 0 -> Int.compare id1 id2 | c -> c)
        | c -> c)
      entries
  in
  List.iter
    (fun (_, p, ev, _) ->
      p.count <- p.count + 1;
      match t.subs with [] -> () | _ -> deliver t p ev)
    entries
