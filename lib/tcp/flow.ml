type t = {
  local_ip : int;
  local_port : int;
  remote_ip : int;
  remote_port : int;
}

let v ~local_ip ~local_port ~remote_ip ~remote_port =
  { local_ip; local_port; remote_ip; remote_port }

let reverse t =
  {
    local_ip = t.remote_ip;
    local_port = t.remote_port;
    remote_ip = t.local_ip;
    remote_port = t.local_port;
  }

let of_segment_rx (s : Segment.t) =
  {
    local_ip = s.dst_ip;
    local_port = s.dst_port;
    remote_ip = s.src_ip;
    remote_port = s.src_port;
  }

let hash t =
  Checksum.crc32_ints3 t.local_ip t.remote_ip
    ((t.local_port lsl 16) lor t.remote_port)

let flow_group t ~groups = hash t mod groups

let equal a b =
  a.local_ip = b.local_ip && a.local_port = b.local_port
  && a.remote_ip = b.remote_ip && a.remote_port = b.remote_port

(* Field by field, in declaration order: the order [Stdlib.compare]
   gives a record of ints, without its generic C walk. *)
let compare a b =
  match Int.compare a.local_ip b.local_ip with
  | 0 -> (
      match Int.compare a.local_port b.local_port with
      | 0 -> (
          match Int.compare a.remote_ip b.remote_ip with
          | 0 -> Int.compare a.remote_port b.remote_port
          | c -> c)
      | c -> c)
  | c -> c

let pp fmt t =
  Format.fprintf fmt "%a:%d<->%a:%d" Segment.pp_ip t.local_ip t.local_port
    Segment.pp_ip t.remote_ip t.remote_port

module Map = Map.Make (struct
  type nonrec t = t

  let compare = compare
end)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
