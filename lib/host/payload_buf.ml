type t = { data : Bytes.t; size : int }

let create ~size =
  if size <= 0 then invalid_arg "Payload_buf.create: size must be positive";
  { data = Bytes.create size; size }

let size t = t.size

let write t ~off ~src ~src_off ~len =
  if len > t.size then invalid_arg "Payload_buf.write: larger than buffer";
  let start = ((off mod t.size) + t.size) mod t.size in
  let first = Int.min len (t.size - start) in
  Bytes.blit src src_off t.data start first;
  if len > first then Bytes.blit src (src_off + first) t.data 0 (len - first)

let read_into t ~off ~dst ~dst_off ~len =
  if len > t.size then invalid_arg "Payload_buf.read: larger than buffer";
  let start = ((off mod t.size) + t.size) mod t.size in
  let first = Int.min len (t.size - start) in
  Bytes.blit t.data start dst dst_off first;
  if len > first then Bytes.blit t.data 0 dst (dst_off + first) (len - first)

let read t ~off ~len =
  let out = Bytes.create len in
  read_into t ~off ~dst:out ~dst_off:0 ~len;
  out
