(* A ring of [size] bytes stored as fixed chunks that exist only while
   they hold unreleased bytes. Chunk [c] covers ring indices
   [c * chunk, min size ((c + 1) * chunk)); an unmapped chunk is empty
   and a mapped one holds [clen >= 1] bytes, so the length tells them
   apart in any marshalled copy too. [hi.(c)] is the end of the highest
   stream range written into chunk [c] since it was mapped: once
   [release] passes it, the chunk holds nothing live and goes to
   [spare]. *)

let chunk_bits = 12
let chunk = 1 lsl chunk_bits

type t = {
  size : int;
  mask : int;  (* [size - 1] when [size] is a power of two, else -1 *)
  clen : int;  (* bytes per chunk: [min chunk size] *)
  chunks : Bytes.t array;
  hi : int array;
  spare : Bytes.t array;  (* a stack of unmapped chunks for reuse *)
  mutable nspare : int;
  mutable mapped : int;
  mutable released : int;
}

let unmapped = Bytes.empty

let create ~size =
  if size <= 0 then invalid_arg "Payload_buf.create: size must be positive";
  let n = (size + chunk - 1) lsr chunk_bits in
  {
    size;
    mask = (if size land (size - 1) = 0 then size - 1 else -1);
    clen = Int.min chunk size;
    chunks = Array.make n unmapped;
    hi = Array.make n 0;
    spare = Array.make n unmapped;
    nspare = 0;
    mapped = 0;
    released = 0;
  }

let size t = t.size
let released t = t.released
let mapped_chunks t = t.mapped
let held_bytes t = (t.mapped + t.nspare) * t.clen

let ring t off = if t.mask >= 0 then off land t.mask else off mod t.size

(* One past the last ring index of the chunk holding ring index [r]. *)
let chunk_end t r = Int.min t.size ((r lor (chunk - 1)) + 1)

let map t c =
  let b =
    if t.nspare > 0 then begin
      t.nspare <- t.nspare - 1;
      let b = t.spare.(t.nspare) in
      t.spare.(t.nspare) <- unmapped;
      b
    end
    else Bytes.create t.clen
  in
  t.chunks.(c) <- b;
  t.hi.(c) <- 0;
  t.mapped <- t.mapped + 1;
  b

(* Both copies check the caller's range once, then blit chunk by chunk
   unchecked: a step never passes [chunk_end], which lies within the
   chunk. One blit per chunk the range touches: usually one. *)
let write t ~off ~src ~src_off ~len =
  if len > t.size then invalid_arg "Payload_buf.write: larger than buffer";
  if src_off < 0 || len < 0 || src_off > Bytes.length src - len then
    invalid_arg "Payload_buf.write: source range";
  if len > 0 then begin
    if off < t.released then invalid_arg "Payload_buf.write: released range";
    let off = ref off and r = ref (ring t off) and src_off = ref src_off in
    let left = ref len in
    while !left > 0 do
      let c = !r lsr chunk_bits in
      let n = Int.min !left (chunk_end t !r - !r) in
      let b = t.chunks.(c) in
      let b = if Bytes.length b = 0 then map t c else b in
      Bytes.unsafe_blit src !src_off b (!r land (chunk - 1)) n;
      if !off + n > t.hi.(c) then t.hi.(c) <- !off + n;
      off := !off + n;
      src_off := !src_off + n;
      left := !left - n;
      r := if !r + n = t.size then 0 else !r + n
    done
  end

let read_into t ~off ~dst ~dst_off ~len =
  if len > t.size then invalid_arg "Payload_buf.read: larger than buffer";
  if dst_off < 0 || len < 0 || dst_off > Bytes.length dst - len then
    invalid_arg "Payload_buf.read: destination range";
  if len > 0 then begin
    if off < t.released then invalid_arg "Payload_buf.read: released range";
    let r = ref (ring t off) and dst_off = ref dst_off and left = ref len in
    while !left > 0 do
      let n = Int.min !left (chunk_end t !r - !r) in
      let b = t.chunks.(!r lsr chunk_bits) in
      if Bytes.length b = 0 then
        invalid_arg "Payload_buf.read: unmapped chunk";
      Bytes.unsafe_blit b (!r land (chunk - 1)) dst !dst_off n;
      dst_off := !dst_off + n;
      left := !left - n;
      r := if !r + n = t.size then 0 else !r + n
    done
  end

let read t ~off ~len =
  let out = Bytes.create len in
  read_into t ~off ~dst:out ~dst_off:0 ~len;
  out

(* Visit the chunks under stream range [released, upto), one per
   step, and unmap each whose written bytes all lie below [upto]. A
   chunk is visited when the walk passes its highest written byte, so
   none is missed; after one full turn of the ring every chunk has
   been seen. *)
let release t ~upto =
  if upto > t.released then begin
    let pos = ref t.released in
    let steps = ref (Array.length t.chunks + 1) in
    while !pos < upto && !steps > 0 do
      let r = ring t !pos in
      let c = r lsr chunk_bits in
      let b = t.chunks.(c) in
      if Bytes.length b > 0 && t.hi.(c) <= upto then begin
        t.chunks.(c) <- unmapped;
        t.spare.(t.nspare) <- b;
        t.nspare <- t.nspare + 1;
        t.mapped <- t.mapped - 1
      end;
      pos := !pos + (chunk_end t r - r);
      decr steps
    done;
    t.released <- upto
  end
