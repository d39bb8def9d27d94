type kind = Array_map | Hash_map

type t = {
  kind : kind;
  key_size : int;
  value_size : int;
  max_entries : int;
  arena : Bytes.t;  (* max_entries fixed-size value slots *)
  slots : (string, int) Hashtbl.t;  (* key -> slot index (hash maps) *)
  free : int Sim.Fifo.t;
  mutable used : int;  (* array maps: all slots considered live *)
}

let create kind ~key_size ~value_size ~max_entries =
  if key_size <= 0 || value_size <= 0 || max_entries <= 0 then
    invalid_arg "Bpf_map.create: sizes must be positive";
  let free = Sim.Fifo.create () in
  for i = 0 to max_entries - 1 do
    Sim.Fifo.push i free
  done;
  {
    kind;
    key_size;
    value_size;
    max_entries;
    arena = Bytes.make (max_entries * value_size) '\000';
    slots = Hashtbl.create (2 * max_entries);
    free;
    used = 0;
  }

let kind t = t.kind
let key_size t = t.key_size
let value_size t = t.value_size
let max_entries t = t.max_entries

let length t =
  match t.kind with
  | Array_map -> t.max_entries
  | Hash_map -> Hashtbl.length t.slots

let array_index t key =
  if Bytes.length key < 4 then None
  else begin
    let b i = Char.code (Bytes.get key i) in
    let idx = b 0 lor (b 1 lsl 8) lor (b 2 lsl 16) lor (b 3 lsl 24) in
    if idx >= 0 && idx < t.max_entries then Some idx else None
  end

let slot_of_index t i =
  if i >= 0 && i < t.max_entries then Some (i * t.value_size) else None

let lookup_slot t ~key =
  match t.kind with
  | Array_map -> Option.bind (array_index t key) (slot_of_index t)
  | Hash_map -> begin
      match Hashtbl.find_opt t.slots (Bytes.to_string key) with
      | Some slot -> Some (slot * t.value_size)
      | None -> None
    end

let update t ~key ~value =
  if Bytes.length value <> t.value_size then Error "bad value size"
  else
    match t.kind with
    | Array_map -> begin
        match array_index t key with
        | Some i ->
            Bytes.blit value 0 t.arena (i * t.value_size) t.value_size;
            Ok ()
        | None -> Error "index out of bounds"
      end
    | Hash_map ->
        if Bytes.length key <> t.key_size then Error "bad key size"
        else begin
          let k = Bytes.to_string key in
          match Hashtbl.find_opt t.slots k with
          | Some slot ->
              Bytes.blit value 0 t.arena (slot * t.value_size) t.value_size;
              Ok ()
          | None ->
              if Sim.Fifo.is_empty t.free then Error "map full"
              else begin
                let slot = Sim.Fifo.pop t.free in
                Hashtbl.replace t.slots k slot;
                Bytes.blit value 0 t.arena (slot * t.value_size)
                  t.value_size;
                Ok ()
              end
        end

let lookup t ~key =
  match lookup_slot t ~key with
  | Some off -> Some (Bytes.sub t.arena off t.value_size)
  | None -> None

let delete t ~key =
  match t.kind with
  | Array_map -> false
  | Hash_map -> begin
      let k = Bytes.to_string key in
      match Hashtbl.find_opt t.slots k with
      | Some slot ->
          Hashtbl.remove t.slots k;
          Bytes.fill t.arena (slot * t.value_size) t.value_size '\000';
          Sim.Fifo.push slot t.free;
          true
      | None -> false
    end

let arena t = t.arena

let iter f t =
  match t.kind with
  | Array_map ->
      for i = 0 to t.max_entries - 1 do
        let key = Bytes.create 4 in
        Bytes.set key 0 (Char.chr (i land 0xFF));
        Bytes.set key 1 (Char.chr ((i lsr 8) land 0xFF));
        Bytes.set key 2 (Char.chr ((i lsr 16) land 0xFF));
        Bytes.set key 3 (Char.chr ((i lsr 24) land 0xFF));
        f key (Bytes.sub t.arena (i * t.value_size) t.value_size)
      done
  | Hash_map ->
      Hashtbl.iter
        (fun k slot ->
          f (Bytes.of_string k)
            (Bytes.sub t.arena (slot * t.value_size) t.value_size))
        t.slots
