(* The CAM is tiny (16 entries on the NFP-4000), so a linear scan over
   an array with logical-clock LRU stamps is both simple and fast. *)

type 'a slot = {
  mutable key : int;
  mutable found : 'a option;
      (* [Some value]: what [find] returns on a hit, allocated once
         per insert rather than once per lookup. *)
  mutable stamp : int;
  mutable pinned : bool;
}

type 'a t = {
  slots : 'a slot option array;
  mutable clock : int;
  mutable hits : int;
  mutable misses : int;
  mutable evictions : int;
  mutable invalidations : int;
  mutable pinned_evictions : int;
}

let create ~entries =
  if entries <= 0 then invalid_arg "Cam.create: entries must be positive";
  {
    slots = Array.make entries None;
    clock = 0;
    hits = 0;
    misses = 0;
    evictions = 0;
    invalidations = 0;
    pinned_evictions = 0;
  }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

(* The index of [key]'s slot, or -1: a loop that allocates nothing. *)
let find_index t key =
  let slots = t.slots in
  let i = ref 0 and found = ref (-1) in
  while !found < 0 && !i < Array.length slots do
    (match slots.(!i) with Some s when s.key = key -> found := !i | _ -> ());
    incr i
  done;
  !found

let find t key =
  match find_index t key with
  | -1 ->
      t.misses <- t.misses + 1;
      None
  | i -> (
      match t.slots.(i) with
      | Some s ->
          t.hits <- t.hits + 1;
          s.stamp <- tick t;
          s.found
      | None -> assert false)

let insert ?(pin = false) t key value =
  match find_index t key with
  | i when i >= 0 -> (
      match t.slots.(i) with
      | Some s ->
          s.found <- Some value;
          s.stamp <- tick t;
          if pin then s.pinned <- true;
          None
      | None -> assert false)
  | _ -> begin
      let n = Array.length t.slots in
      (* Prefer an empty slot; otherwise evict the LRU unpinned slot,
         falling back to the LRU pinned one (counted, never silent). *)
      let free = ref (-1) in
      let lru = ref (-1) and lru_stamp = ref max_int in
      let plru = ref (-1) and plru_stamp = ref max_int in
      for i = 0 to n - 1 do
        match t.slots.(i) with
        | None -> if !free < 0 then free := i
        | Some s ->
            if s.pinned then begin
              if s.stamp < !plru_stamp then begin
                plru_stamp := s.stamp;
                plru := i
              end
            end
            else if s.stamp < !lru_stamp then begin
              lru_stamp := s.stamp;
              lru := i
            end
      done;
      if !free >= 0 then begin
        t.slots.(!free) <-
          Some { key; found = Some value; stamp = tick t; pinned = pin };
        None
      end
      else begin
        let idx, forced = if !lru >= 0 then (!lru, false) else (!plru, true) in
        let evicted =
          match t.slots.(idx) with
          | Some { key; found = Some value; _ } -> (key, value)
          | _ -> assert false
        in
        t.slots.(idx) <-
          Some { key; found = Some value; stamp = tick t; pinned = pin };
        t.evictions <- t.evictions + 1;
        if forced then t.pinned_evictions <- t.pinned_evictions + 1;
        Some evicted
      end
    end

let unpin t key =
  match find_index t key with
  | -1 -> ()
  | i -> (
      match t.slots.(i) with Some s -> s.pinned <- false | None -> ())

let remove t key =
  Array.iteri
    (fun i -> function
      | Some s when s.key = key ->
          t.slots.(i) <- None;
          t.invalidations <- t.invalidations + 1
      | _ -> ())
    t.slots

let mem t key = find_index t key >= 0

let length t =
  Array.fold_left (fun n -> function Some _ -> n + 1 | None -> n) 0 t.slots

let capacity t = Array.length t.slots
let hits t = t.hits
let misses t = t.misses
let evictions t = t.evictions
let invalidations t = t.invalidations
let pinned_evictions t = t.pinned_evictions

let clear t = Array.fill t.slots 0 (Array.length t.slots) None

let iter f t =
  Array.iter
    (function Some { key; found = Some v; _ } -> f key v | _ -> ())
    t.slots
