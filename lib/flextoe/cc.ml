type observation = {
  acked_bytes : int;
  ecn_bytes : int;
  fast_retx : int;
  rtt_ns : int;
  interval : Sim.Time.t;
}

type decision = Keep | Rate of int | Uncongested

let min_rate_bps = 2_000_000
(* Additive-dominated growth: a fixed 8 Mbps term drives paced flows
   toward equal shares (pure proportional growth preserves ratios and
   never converges to fairness), while the rate/64 term keeps recovery
   of fat flows from taking thousands of RTTs. *)
let ai_increment rate = Int.max 8_000_000 (rate / 64)

let throughput_estimate obs =
  let s = Sim.Time.to_sec obs.interval in
  if s <= 0. then 0
  else int_of_float (float_of_int (8 * obs.acked_bytes) /. s)

(* Clamp and convert a raw rate into a decision. *)
let decide ~wire_bps bps =
  if bps >= wire_bps then Uncongested else Rate (Int.max bps min_rate_bps)

module Dctcp = struct
  type t = { mutable alpha : float; mutable rate : int }

  let create () = { alpha = 0.; rate = 0 }
  let alpha t = t.alpha
  let rate_bps t = t.rate

  let g = 1. /. 16.

  let current_rate t ~wire_bps obs =
    if t.rate > 0 then t.rate
    else begin
      (* Unpaced flow entering congestion: start from what it actually
         achieved. *)
      let est = throughput_estimate obs in
      if est <= 0 then wire_bps else Int.min est wire_bps
    end

  let update t ~wire_bps obs =
    if obs.acked_bytes > 0 then begin
      let frac =
        float_of_int obs.ecn_bytes /. float_of_int obs.acked_bytes
      in
      t.alpha <- (t.alpha *. (1. -. g)) +. (frac *. g)
    end;
    if obs.ecn_bytes > 0 || obs.fast_retx > 0 then begin
      let rate = current_rate t ~wire_bps obs in
      let cut =
        if obs.fast_retx > 0 then 0.5 else 1. -. (t.alpha /. 2.)
      in
      let d = decide ~wire_bps (int_of_float (float_of_int rate *. cut)) in
      (match d with
      | Rate r -> t.rate <- r
      | Uncongested -> t.rate <- 0
      | Keep -> ());
      d
    end
    else if t.rate > 0 then begin
      let d = decide ~wire_bps (t.rate + ai_increment t.rate) in
      (match d with
      | Rate r -> t.rate <- r
      | Uncongested -> t.rate <- 0
      | Keep -> ());
      d
    end
    else Keep
end

module Timely = struct
  type t = {
    mutable rate : int;
    mutable prev_rtt_ns : int;
    mutable min_rtt_ns : int;
  }

  let create () = { rate = 0; prev_rtt_ns = 0; min_rtt_ns = 0 }
  let rate_bps t = t.rate
  let t_low_ns = 50_000
  let t_high_ns = 500_000
  let beta = 0.8

  let current_rate t ~wire_bps obs =
    if t.rate > 0 then t.rate
    else begin
      let est = throughput_estimate obs in
      if est <= 0 then wire_bps else Int.min est wire_bps
    end

  let apply t ~wire_bps bps =
    let d = decide ~wire_bps bps in
    (match d with
    | Rate r -> t.rate <- r
    | Uncongested -> t.rate <- 0
    | Keep -> ());
    d

  let update t ~wire_bps obs =
    let rtt = obs.rtt_ns in
    if obs.fast_retx > 0 then
      apply t ~wire_bps (current_rate t ~wire_bps obs / 2)
    else if rtt <= 0 then Keep
    else begin
      if t.min_rtt_ns = 0 || rtt < t.min_rtt_ns then t.min_rtt_ns <- rtt;
      let decision =
        if rtt < t_low_ns then
          if t.rate > 0 then apply t ~wire_bps (t.rate + ai_increment t.rate)
          else Keep
        else if rtt > t_high_ns then
          apply t ~wire_bps
            (int_of_float
               (float_of_int (current_rate t ~wire_bps obs)
               *. (1.
                  -. (beta *. (1. -. (float_of_int t_high_ns
                                      /. float_of_int rtt))))))
        else begin
          let gradient =
            float_of_int (rtt - t.prev_rtt_ns)
            /. float_of_int (Int.max 1 t.min_rtt_ns)
          in
          if gradient <= 0. then
            if t.rate > 0 then
              apply t ~wire_bps (t.rate + ai_increment t.rate)
            else Keep
          else
            apply t ~wire_bps
              (int_of_float
                 (float_of_int (current_rate t ~wire_bps obs)
                 *. (1. -. (beta *. Float.min 1. gradient))))
        end
      in
      t.prev_rtt_ns <- rtt;
      decision
    end
end
