module Counter = struct
  type t = { mutable v : int }

  let create () = { v = 0 }
  let incr t = t.v <- t.v + 1
  let add t n = t.v <- t.v + n
  let get t = t.v
  let reset t = t.v <- 0
end

module Histogram = struct
  (* Log-bucketed: bucket index = (octave * sub_count + sub), where
     octave = position of the highest set bit above [sub_bits], and
     sub = the next [sub_bits] bits. Values below 2^sub_bits map
     exactly. *)
  let sub_bits = 6
  let sub_count = 1 lsl sub_bits
  let octaves = 58

  type t = {
    buckets : int array;
    mutable count : int;
    mutable total : int;  (* exact, and unboxed: [add] allocates nothing *)
    mutable min_v : int;
    mutable max_v : int;
  }

  let create () =
    {
      buckets = Array.make ((octaves + 1) * sub_count) 0;
      count = 0;
      total = 0;
      min_v = max_int;
      max_v = 0;
    }

  (* Position of the most significant set bit of [v] (v >= 1). *)
  let top_bit_position v =
    let rec go v acc = if v <= 1 then acc else go (v lsr 1) (acc + 1) in
    go v 0

  let index_of v =
    if v < sub_count then v
    else begin
      let msb = top_bit_position v in
      let octave = msb - sub_bits + 1 in
      let sub = (v lsr (msb - sub_bits)) land (sub_count - 1) in
      (octave * sub_count) + sub
    end

  (* Representative value for a bucket: midpoint of its range. *)
  let value_of idx =
    if idx < sub_count then idx
    else begin
      let octave = idx / sub_count in
      let sub = idx mod sub_count in
      let base = (sub_count lor sub) lsl (octave - 1) in
      let width = 1 lsl (octave - 1) in
      base + (width / 2)
    end

  let add t v =
    let v = if v < 0 then 0 else v in
    t.buckets.(index_of v) <- t.buckets.(index_of v) + 1;
    t.count <- t.count + 1;
    t.total <- t.total + v;
    if v < t.min_v then t.min_v <- v;
    if v > t.max_v then t.max_v <- v

  let count t = t.count
  let min_opt t = if t.count = 0 then None else Some t.min_v
  let max_opt t = if t.count = 0 then None else Some t.max_v
  let min t = match min_opt t with Some v -> v | None -> 0
  let max t = match max_opt t with Some v -> v | None -> 0
  let mean t =
    if t.count = 0 then 0. else float_of_int t.total /. float_of_int t.count

  let percentile_opt t p =
    if t.count = 0 then None
    else begin
      let rank =
        let r =
          int_of_float (Float.round (p /. 100. *. float_of_int t.count))
        in
        if r < 1 then 1 else if r > t.count then t.count else r
      in
      (* Rank 1 is exactly the smallest sample and rank [count] the
         largest; answering from the tracked extremes keeps p0/p100
         exact rather than bucket-resolution approximate. *)
      if rank = 1 then Some t.min_v
      else if rank = t.count then Some t.max_v
      else begin
        let acc = ref 0 in
        let result = ref t.max_v in
        (try
           for i = 0 to Array.length t.buckets - 1 do
             acc := !acc + t.buckets.(i);
             if !acc >= rank then begin
               result := value_of i;
               raise Exit
             end
           done
         with Exit -> ());
        (* Clamp to observed range: bucket midpoints can exceed max. *)
        Some
          (if !result > t.max_v then t.max_v
           else if !result < t.min_v then t.min_v
           else !result)
      end
    end

  let percentile t p =
    match percentile_opt t p with Some v -> v | None -> 0

  let merge dst src =
    Array.iteri (fun i n -> dst.buckets.(i) <- dst.buckets.(i) + n) src.buckets;
    dst.count <- dst.count + src.count;
    dst.total <- dst.total + src.total;
    if src.count > 0 then begin
      if src.min_v < dst.min_v then dst.min_v <- src.min_v;
      if src.max_v > dst.max_v then dst.max_v <- src.max_v
    end

  let reset t =
    Array.fill t.buckets 0 (Array.length t.buckets) 0;
    t.count <- 0;
    t.total <- 0;
    t.min_v <- max_int;
    t.max_v <- 0
end

module Meter = struct
  type t = { mutable bytes : int; mutable ops : int }

  let create () = { bytes = 0; ops = 0 }

  let record t ?(bytes = 0) ?(ops = 0) () =
    t.bytes <- t.bytes + bytes;
    t.ops <- t.ops + ops

  let bytes t = t.bytes
  let ops t = t.ops

  let gbps t ~duration =
    if duration <= 0 then 0.
    else float_of_int (8 * t.bytes) /. Time.to_sec duration /. 1e9

  let mops t ~duration =
    if duration <= 0 then 0.
    else float_of_int t.ops /. Time.to_sec duration /. 1e6

  let reset t =
    t.bytes <- 0;
    t.ops <- 0
end

let jain_fairness xs =
  let n = Array.length xs in
  if n = 0 then 1.0
  else begin
    let sum = Array.fold_left ( +. ) 0. xs in
    let sum_sq = Array.fold_left (fun a x -> a +. (x *. x)) 0. xs in
    if sum_sq = 0. then 1.0 else sum *. sum /. (float_of_int n *. sum_sq)
  end

let mean xs =
  let n = Array.length xs in
  if n = 0 then 0. else Array.fold_left ( +. ) 0. xs /. float_of_int n

let percentile_of_sorted a p =
  let n = Array.length a in
  if n = 0 then 0.
  else if n = 1 then a.(0)
  else begin
    let rank = p /. 100. *. float_of_int (n - 1) in
    let lo = int_of_float (Float.of_int (int_of_float rank)) in
    let lo = if lo < 0 then 0 else if lo > n - 2 then n - 2 else lo in
    let frac = rank -. float_of_int lo in
    a.(lo) +. (frac *. (a.(lo + 1) -. a.(lo)))
  end
