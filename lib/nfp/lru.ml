type node = {
  key : int;
  mutable prev : node option;
  mutable next : node option;
  mutable pinned : bool;
}

type t = {
  entries : int;
  tbl : node Conn_table.t;
  mutable head : node option;  (* most recently used *)
  mutable tail : node option;  (* least recently used *)
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable pinned_evictions : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Lru.create: entries must be positive";
  {
    entries;
    tbl = Conn_table.create ();
    head = None;
    tail = None;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    pinned_evictions = 0;
  }

let unlink t n =
  (match n.prev with
  | Some p -> p.next <- n.next
  | None -> t.head <- n.next);
  (match n.next with
  | Some s -> s.prev <- n.prev
  | None -> t.tail <- n.prev);
  n.prev <- None;
  n.next <- None

let push_front t n =
  n.next <- t.head;
  n.prev <- None;
  (match t.head with Some h -> h.prev <- Some n | None -> t.tail <- Some n);
  t.head <- Some n

(* Eviction victim: the LRU entry among the unpinned ones, walking
   tail-to-head. Pinned (hot, Established) state is skipped; if the
   whole cache is pinned the true LRU goes anyway — never silently,
   the forced eviction is counted in [pinned_evictions]. *)
let victim t =
  let rec unpinned = function
    | None -> None
    | Some n when not n.pinned -> Some (n, false)
    | Some n -> unpinned n.prev
  in
  match unpinned t.tail with
  | Some _ as v -> v
  | None -> ( match t.tail with Some n -> Some (n, true) | None -> None)

let access ?(pin = false) t key =
  match Conn_table.find_opt t.tbl key with
  | Some n ->
      t.hits <- t.hits + 1;
      if pin then n.pinned <- true;
      unlink t n;
      push_front t n;
      true
  | None ->
      t.misses <- t.misses + 1;
      if Conn_table.length t.tbl >= t.entries then begin
        match victim t with
        | Some (lru, forced) ->
            unlink t lru;
            Conn_table.remove t.tbl lru.key;
            t.evictions <- t.evictions + 1;
            if forced then t.pinned_evictions <- t.pinned_evictions + 1
        | None -> ()
      end;
      let n = { key; prev = None; next = None; pinned = pin } in
      Conn_table.replace t.tbl key n;
      push_front t n;
      false

let mem t key = Conn_table.mem t.tbl key

let unpin t key =
  match Conn_table.find_opt t.tbl key with
  | Some n -> n.pinned <- false
  | None -> ()

let remove t key =
  match Conn_table.find_opt t.tbl key with
  | Some n ->
      unlink t n;
      Conn_table.remove t.tbl key;
      t.invalidations <- t.invalidations + 1
  | None -> ()

let length t = Conn_table.length t.tbl
let capacity t = t.entries
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations
let pinned_evictions t = t.pinned_evictions
