let ones_complement buf ~off ~len ~init =
  let sum = ref init in
  let i = ref off in
  let stop = off + len in
  while !i + 1 < stop do
    sum := !sum + (Char.code (Bytes.get buf !i) lsl 8)
           + Char.code (Bytes.get buf (!i + 1));
    i := !i + 2
  done;
  if !i < stop then sum := !sum + (Char.code (Bytes.get buf !i) lsl 8);
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

let crc32_ints words =
  let crc = ref 0xFFFFFFFF in
  List.iter
    (fun w ->
      crc := crc32_update !crc ((w lsr 24) land 0xFF);
      crc := crc32_update !crc ((w lsr 16) land 0xFF);
      crc := crc32_update !crc ((w lsr 8) land 0xFF);
      crc := crc32_update !crc (w land 0xFF))
    words;
  !crc lxor 0xFFFFFFFF
