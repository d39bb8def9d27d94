external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external swap64 : int64 -> int64 = "%bswap_int64"

(* Sums the buffer as big-endian 64-bit words, each split into its two
   32-bit halves, then the tail as 16-bit words. A 32-bit half
   [a * 2^16 + b] adds [a + b] modulo 0xFFFF, because 2^16 = 1 in
   ones'-complement arithmetic, so the total is congruent to the RFC
   1071 16-bit word sum (and zero exactly when it is): {!finish} folds
   both to the same checksum. The bounds are checked once, up front.
   The int accumulator gains less than 2^33 per 8 bytes, so it cannot
   overflow below 2^29 64-bit words (4 GiB). *)
let ones_complement buf ~off ~len ~init =
  if off < 0 || len < 0 || off > Bytes.length buf - len then
    invalid_arg "Checksum.ones_complement: range out of bounds";
  let sum = ref init in
  let i = ref off in
  let words_end = off + (len land lnot 7) in
  while !i < words_end do
    let w = get64u buf !i in
    let w = if Sys.big_endian then w else swap64 w in
    sum :=
      !sum
      + Int64.to_int (Int64.shift_right_logical w 32)
      + (Int64.to_int w land 0xFFFF_FFFF);
    i := !i + 8
  done;
  let stop = off + len in
  while !i + 1 < stop do
    sum :=
      !sum
      + (Char.code (Bytes.unsafe_get buf !i) lsl 8)
      + Char.code (Bytes.unsafe_get buf (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.unsafe_get buf !i) lsl 8);
  !sum

let finish sum =
  let s = ref sum in
  while !s > 0xFFFF do
    s := (!s land 0xFFFF) + (!s lsr 16)
  done;
  lnot !s land 0xFFFF

let internet buf ~off ~len = finish (ones_complement buf ~off ~len ~init:0)

let pseudo_header_sum ~src_ip ~dst_ip ~protocol ~length =
  (src_ip lsr 16)
  + (src_ip land 0xFFFF)
  + (dst_ip lsr 16)
  + (dst_ip land 0xFFFF)
  + protocol + length

(* Built eagerly at module initialisation and never written again, so
   simulation LPs on different domains may read it concurrently (a
   shared [lazy] raises [CamlinternalLazy.Undefined] when two domains
   force it at once). *)
let crc_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        if !c land 1 = 1 then c := 0xEDB88320 lxor (!c lsr 1)
        else c := !c lsr 1
      done;
      !c)

let crc32_update crc byte =
  crc_table.((crc lxor byte) land 0xFF) lxor (crc lsr 8)

let crc32 buf ~off ~len =
  let crc = ref 0xFFFFFFFF in
  for i = off to off + len - 1 do
    crc := crc32_update !crc (Char.code (Bytes.get buf i))
  done;
  !crc lxor 0xFFFFFFFF

(* Feeds one 32-bit word, most significant byte first. *)
let crc32_word crc w =
  let crc = crc32_update crc ((w lsr 24) land 0xFF) in
  let crc = crc32_update crc ((w lsr 16) land 0xFF) in
  let crc = crc32_update crc ((w lsr 8) land 0xFF) in
  crc32_update crc (w land 0xFF)

let crc32_ints words =
  List.fold_left crc32_word 0xFFFFFFFF words lxor 0xFFFFFFFF

let crc32_ints3 a b c =
  crc32_word (crc32_word (crc32_word 0xFFFFFFFF a) b) c lxor 0xFFFFFFFF
