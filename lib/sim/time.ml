type t = int

let zero = 0
let ps n = n
let ns n = n * 1_000
let us n = n * 1_000_000
let ms n = n * 1_000_000_000
let sec s = int_of_float (Float.round (s *. 1e12))
let to_ns t = float_of_int t /. 1e3
let to_us t = float_of_int t /. 1e6
let to_ms t = float_of_int t /. 1e9
let to_sec t = float_of_int t /. 1e12

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dps" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fns" (to_ns t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fus" (to_us t)
  else if a < 1_000_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms t)
  else Format.fprintf fmt "%.3fs" (to_sec t)

module Freq = struct
  type time = t
  type t = { ps_per_cycle : int }

  let of_mhz f =
    if f <= 0 then invalid_arg "Freq.of_mhz: non-positive frequency";
    if 1_000_000 mod f <> 0 then
      invalid_arg "Freq.of_mhz: period is not a whole number of picoseconds";
    { ps_per_cycle = 1_000_000 / f }

  let of_ghz f = of_mhz (int_of_float (Float.round (f *. 1000.)))
  let ps_per_cycle { ps_per_cycle } = ps_per_cycle
  let cycles f n = n * f.ps_per_cycle

  let to_cycles f t =
    (t + f.ps_per_cycle - 1) / f.ps_per_cycle
end
