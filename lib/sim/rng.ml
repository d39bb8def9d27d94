(* The splitmix64 state lives unboxed in 8 bytes: reading it, adding
   the increment and storing it back allocate nothing, where a
   [mutable int64] field boxed every new state (3 words, stored into a
   long-lived record through the write barrier). *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

(* The splitmix64 finalizer (Steele, Lea, Flood 2014): a bijective
   mixer, also used to derive statistically independent stream seeds
   from (seed, key) pairs. *)
let[@inline] mix64 z =
  let open Int64 in
  let z = mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL in
  logxor z (shift_right_logical z 31)

(* splitmix64. Inlined, so a draw's int64s stay in registers. *)
let[@inline] next64 t =
  let z = Int64.add (Bytes.get_int64_ne t 0) 0x9E3779B97F4A7C15L in
  Bytes.set_int64_ne t 0 z;
  mix64 z

let split t = create (next64 t)

let stream ~seed ~key =
  if key < 0 then invalid_arg "Rng.stream: negative key";
  create
    (mix64
       (Int64.add seed
          (Int64.mul (Int64.of_int (key + 1)) 0x9E3779B97F4A7C15L)))

let[@inline] int t bound =
  if bound <= 0 then invalid_arg "Rng.int: non-positive bound";
  let mask = Int64.to_int (Int64.shift_right_logical (next64 t) 2) in
  mask mod bound

let[@inline] float t bound =
  (* 53 random bits into the mantissa. *)
  let bits = Int64.to_float (Int64.shift_right_logical (next64 t) 11) in
  bits /. 9007199254740992.0 *. bound

let[@inline] bool t p = float t 1.0 < p

let exponential t mean =
  let u = float t 1.0 in
  let u = if u <= 0. then 1e-12 else u in
  -.mean *. log u

let shuffle t a =
  for i = Array.length a - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- tmp
  done
