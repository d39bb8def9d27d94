type work = { cycles : int; category : string; k : unit -> unit }

type core = {
  engine : Sim.Engine.t;
  freq : Sim.Time.Freq.t;
  pending : work Sim.Fifo.t;
  mutable busy : bool;
  mutable busy_time : Sim.Time.t;
  (* Cycles per category: [cat_names.(i)] has been charged
     [cat_cycles.(i)], for i below [n_cats]. A core sees a handful of
     categories, so a scan with [String.equal] (which tries physical
     equality first) beats hashing the name on every [exec]. *)
  mutable cat_names : string array;
  mutable cat_cycles : int array;
  mutable n_cats : int;
  rng : Sim.Rng.t;
  mutable noise_interval : int;  (* busy cycles per expected stall *)
  mutable noise_mean : int;
}

type t = {
  e : Sim.Engine.t;
  f : Sim.Time.Freq.t;
  cs : core array;
}

let create engine ?(freq = Sim.Time.Freq.of_ghz 2.0) ~cores () =
  if cores <= 0 then invalid_arg "Host_cpu.create: cores must be positive";
  {
    e = engine;
    f = freq;
    cs =
      Array.init cores (fun _ ->
          {
            engine;
            freq;
            pending = Sim.Fifo.create ();
            busy = false;
            busy_time = 0;
            cat_names = Array.make 8 "";
            cat_cycles = Array.make 8 0;
            n_cats = 0;
            rng = Sim.Rng.split (Sim.Engine.Local.rng engine);
            noise_interval = 0;
            noise_mean = 0;
          });
  }

let set_noise t ~interval_cycles ~mean_cycles =
  Array.iter
    (fun c ->
      c.noise_interval <- interval_cycles;
      c.noise_mean <- mean_cycles)
    t.cs

let engine t = t.e
let cores t = Array.length t.cs
let core t i = t.cs.(i)
let freq t = t.f

let add_category c category =
  let n = c.n_cats in
  if n = Array.length c.cat_names then begin
    let extend a fill =
      let b = Array.make (2 * n) fill in
      Array.blit a 0 b 0 n;
      b
    in
    c.cat_names <- extend c.cat_names "";
    c.cat_cycles <- extend c.cat_cycles 0
  end;
  c.cat_names.(n) <- category;
  c.n_cats <- n + 1;
  n

let rec category_index c category i =
  if i = c.n_cats then add_category c category
  else if String.equal c.cat_names.(i) category then i
  else category_index c category (i + 1)

let account c category cycles =
  let i = category_index c category 0 in
  c.cat_cycles.(i) <- c.cat_cycles.(i) + cycles

let rec start c (w : work) =
  c.busy <- true;
  account c w.category w.cycles;
  let noise =
    if c.noise_interval > 0 then begin
      let p =
        Float.min 0.25
          (float_of_int w.cycles /. float_of_int c.noise_interval)
      in
      if Sim.Rng.bool c.rng p then
        int_of_float
          (Sim.Rng.exponential c.rng (float_of_int c.noise_mean))
      else 0
    end
    else 0
  in
  if noise > 0 then account c "noise" noise;
  let dur = Sim.Time.Freq.cycles c.freq (w.cycles + noise) in
  c.busy_time <- c.busy_time + dur;
  Sim.Engine.schedule c.engine dur (fun () ->
      c.busy <- false;
      w.k ();
      if (not c.busy) && not (Sim.Fifo.is_empty c.pending) then
        start c (Sim.Fifo.pop c.pending))

let exec c ?(category = "other") ~cycles k =
  let w = { cycles; category; k } in
  if c.busy then Sim.Fifo.push w c.pending else start c w

let exec_now c ?category ~cycles () = exec c ?category ~cycles (fun () -> ())
let busy_time c = c.busy_time
let queue_length c = Sim.Fifo.length c.pending

let cycles_by_category t =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      for i = 0 to c.n_cats - 1 do
        let cat = c.cat_names.(i) in
        let cur = Option.value ~default:0 (Hashtbl.find_opt tbl cat) in
        Hashtbl.replace tbl cat (cur + c.cat_cycles.(i))
      done)
    t.cs;
  Hashtbl.fold (fun cat n acc -> (cat, n) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let total_cycles t =
  List.fold_left (fun acc (_, n) -> acc + n) 0 (cycles_by_category t)

let utilization c ~total =
  if total <= 0 then 0.
  else Sim.Time.to_sec c.busy_time /. Sim.Time.to_sec total
