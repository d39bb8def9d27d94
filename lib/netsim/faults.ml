module S = Tcp.Segment

type spec =
  | Uniform_loss of float
  | Gilbert_loss of {
      p_good_bad : float;
      p_bad_good : float;
      loss_good : float;
      loss_bad : float;
    }
  | Reorder of { prob : float; window : int; max_hold : Sim.Time.t }
  | Duplicate of float
  | Corrupt of { prob : float; header_prob : float }
  | Jitter of { max_delay : Sim.Time.t }
  | Blackout of {
      start : Sim.Time.t;
      duration : Sim.Time.t;
      period : Sim.Time.t option;
    }

type counters = {
  mutable seen : int;
  mutable passed : int;
  mutable dropped_loss : int;
  mutable dropped_blackout : int;
  mutable duplicated : int;
  mutable reordered : int;
  mutable corrupted : int;
  mutable delayed : int;
}

type t = {
  engine : Sim.Engine.t;
  c : counters;
  stages : (S.frame -> (S.frame -> unit) -> unit) list;
}

(* ---- individual stages ------------------------------------------------ *)

let uniform_loss c rng p frame k =
  if Sim.Rng.bool rng p then c.dropped_loss <- c.dropped_loss + 1 else k frame

let gilbert_loss c rng ~p_good_bad ~p_bad_good ~loss_good ~loss_bad =
  (* Two-state Markov chain (Gilbert-Elliott): one transition draw per
     frame, then a state-dependent loss draw. Time spent in the bad
     state is geometric with mean [1 /. p_bad_good] frames, giving
     bursty rather than independent losses. *)
  let bad = ref false in
  fun frame k ->
    (if !bad then begin
       if Sim.Rng.bool rng p_bad_good then bad := false
     end
     else if Sim.Rng.bool rng p_good_bad then bad := true);
    let p = if !bad then loss_bad else loss_good in
    if p > 0. && Sim.Rng.bool rng p then c.dropped_loss <- c.dropped_loss + 1
    else k frame

type held = {
  h_frame : S.frame;
  mutable h_remaining : int;  (* later frames to let pass first *)
  mutable h_released : bool;
}

let reorder engine c rng ~prob ~window ~max_hold =
  (* Count-based bounded reordering: a selected frame is held until
     [1 + uniform(window)] later frames have passed it, so it arrives
     at most [window] positions late. A timeout failsafe releases
     held frames even if traffic stops (e.g. the held frame was the
     tail of a burst), otherwise the connection would deadlock waiting
     for a frame the fault stage still owns. *)
  let held : held list ref = ref [] in
  fun frame k ->
    if window > 0 && Sim.Rng.bool rng prob then begin
      let cell =
        { h_frame = frame; h_remaining = 1 + Sim.Rng.int rng window;
          h_released = false }
      in
      c.reordered <- c.reordered + 1;
      held := !held @ [ cell ];
      Sim.Engine.schedule engine max_hold (fun () ->
          if not cell.h_released then begin
            cell.h_released <- true;
            held := List.filter (fun h -> h != cell) !held;
            k cell.h_frame
          end)
    end
    else begin
      k frame;
      List.iter (fun h -> h.h_remaining <- h.h_remaining - 1) !held;
      let ready, still = List.partition (fun h -> h.h_remaining <= 0) !held in
      held := still;
      List.iter
        (fun h ->
          h.h_released <- true;
          k h.h_frame)
        ready
    end

let duplicate c rng p frame k =
  k frame;
  if Sim.Rng.bool rng p then begin
    c.duplicated <- c.duplicated + 1;
    k frame
  end

let corrupt c rng ~prob ~header_prob frame k =
  (* Flip one bit of a copy of the segment while keeping the frame's
     original checksum, so the receiver sees a checksum mismatch —
     the same observable a real NIC gets from wire corruption. *)
  if not (Sim.Rng.bool rng prob) then k frame
  else begin
    c.corrupted <- c.corrupted + 1;
    let seg = frame.S.seg in
    let plen = Bytes.length seg.S.payload in
    let seg' =
      if plen > 0 && not (Sim.Rng.bool rng header_prob) then begin
        let payload = Bytes.copy seg.S.payload in
        let byte = Sim.Rng.int rng plen in
        let bit = Sim.Rng.int rng 8 in
        Bytes.set payload byte
          (Char.chr (Char.code (Bytes.get payload byte) lxor (1 lsl bit)));
        { seg with S.payload }
      end
      else
        (* Header corruption: flip a bit of the sequence number (a
           single-bit flip always perturbs the ones'-complement sum). *)
        { seg with S.seq = seg.S.seq lxor (1 lsl Sim.Rng.int rng 32) land 0xFFFFFFFF }
    in
    k { frame with S.seg = seg' }
  end

let jitter engine c rng ~max_delay frame k =
  let d = Sim.Rng.int rng (max_delay + 1) in
  if d = 0 then k frame
  else begin
    c.delayed <- c.delayed + 1;
    Sim.Engine.schedule engine d (fun () -> k frame)
  end

let blackout engine c ~start ~duration ~period frame k =
  let now = Sim.Engine.now engine in
  let active =
    now >= start
    &&
    match period with
    | None -> now < start + duration
    | Some p -> (now - start) mod p < duration
  in
  if active then c.dropped_blackout <- c.dropped_blackout + 1 else k frame

(* ---- chain construction ----------------------------------------------- *)

let compile engine c rng spec =
  match spec with
  | Uniform_loss p -> uniform_loss c (Sim.Rng.split rng) p
  | Gilbert_loss { p_good_bad; p_bad_good; loss_good; loss_bad } ->
      gilbert_loss c (Sim.Rng.split rng) ~p_good_bad ~p_bad_good ~loss_good
        ~loss_bad
  | Reorder { prob; window; max_hold } ->
      reorder engine c (Sim.Rng.split rng) ~prob ~window ~max_hold
  | Duplicate p -> duplicate c (Sim.Rng.split rng) p
  | Corrupt { prob; header_prob } ->
      corrupt c (Sim.Rng.split rng) ~prob ~header_prob
  | Jitter { max_delay } -> jitter engine c (Sim.Rng.split rng) ~max_delay
  | Blackout { start; duration; period } ->
      blackout engine c ~start ~duration ~period

let create engine ?(seed = 0x0FA17L) specs =
  let rng = Sim.Rng.create seed in
  let c =
    {
      seen = 0;
      passed = 0;
      dropped_loss = 0;
      dropped_blackout = 0;
      duplicated = 0;
      reordered = 0;
      corrupted = 0;
      delayed = 0;
    }
  in
  let stages = List.map (compile engine c rng) specs in
  { engine; c; stages }

let hook t frame k =
  let rec run stages frame =
    match stages with
    | [] ->
        t.c.passed <- t.c.passed + 1;
        k frame
    | s :: rest -> s frame (fun frame' -> run rest frame')
  in
  t.c.seen <- t.c.seen + 1;
  run t.stages frame

let attach_rx t port = Fabric.set_rx_fault port (Some (hook t))

(* ---- counters --------------------------------------------------------- *)

let seen t = t.c.seen
let passed t = t.c.passed
let dropped_loss t = t.c.dropped_loss
let duplicated t = t.c.duplicated
let reordered t = t.c.reordered
let corrupted t = t.c.corrupted
let delayed t = t.c.delayed

let counters t =
  [
    ("seen", t.c.seen);
    ("passed", t.c.passed);
    ("dropped_loss", t.c.dropped_loss);
    ("dropped_blackout", t.c.dropped_blackout);
    ("duplicated", t.c.duplicated);
    ("reordered", t.c.reordered);
    ("corrupted", t.c.corrupted);
    ("delayed", t.c.delayed);
  ]

(* ---- named schedules -------------------------------------------------- *)

let named = function
  | "none" -> []
  | "bursty-loss" ->
      (* ~1.9% average loss in ms-scale bursts: P(bad) = p_gb / (p_gb
         + p_bg) ≈ 3.8%, half the frames in a bad state are lost. *)
      [
        Gilbert_loss
          {
            p_good_bad = 0.002;
            p_bad_good = 0.05;
            loss_good = 0.;
            loss_bad = 0.5;
          };
      ]
  | "reorder-heavy" ->
      [
        Reorder { prob = 0.05; window = 8; max_hold = Sim.Time.us 500 };
        Duplicate 0.01;
      ]
  | "corruption" -> [ Corrupt { prob = 0.0001; header_prob = 0.25 } ]
  | "blackout" ->
      [
        Blackout
          {
            start = Sim.Time.ms 8;
            duration = Sim.Time.ms 5;
            period = None;
          };
      ]
  | "jitter" -> [ Jitter { max_delay = Sim.Time.us 50 } ]
  | name -> invalid_arg ("Faults.named: unknown schedule " ^ name)

(* ---- connection-churn load generators --------------------------------- *)

module Churn = struct
  let mac_of_ip ip = 0x020000000000 lor ip

  type flood = {
    fl_engine : Sim.Engine.t;
    fl_port : Fabric.port;
    fl_src_ip : int;
    fl_dst_ip : int;
    fl_dst_port : int;
    fl_interval : Sim.Time.t;
    fl_src_ports : int;
    mutable fl_next_port : int;
    mutable fl_sent : int;
    mutable fl_stopped : bool;
  }

  let flood_frame f =
    (* Rotating ephemeral source ports, monotone ISNs: every SYN names
       a distinct 4-tuple, the worst case for a stateful backlog. The
       attacker never completes a handshake. *)
    let src_port = 20_000 + (f.fl_next_port mod f.fl_src_ports) in
    f.fl_next_port <- f.fl_next_port + 1;
    let seg =
      S.make
        ~flags:{ S.no_flags with S.syn = true }
        ~src_ip:f.fl_src_ip ~dst_ip:f.fl_dst_ip ~src_port
        ~dst_port:f.fl_dst_port
        ~seq:(Tcp.Seq32.of_int (f.fl_sent * 0x10001 land 0x3FFFFFFF))
        ~ack_seq:Tcp.Seq32.zero ()
    in
    S.make_frame
      ~src_mac:(mac_of_ip f.fl_src_ip)
      ~dst_mac:(mac_of_ip f.fl_dst_ip)
      seg

  let rec flood_tick f () =
    if not f.fl_stopped then begin
      Fabric.transmit f.fl_port (flood_frame f);
      f.fl_sent <- f.fl_sent + 1;
      Sim.Engine.schedule f.fl_engine f.fl_interval (flood_tick f)
    end

  let syn_flood engine fabric ~src_ip ~dst_ip ~dst_port ~rate_pps
      ?(src_ports = 4096) () =
    if rate_pps <= 0 then invalid_arg "Churn.syn_flood: rate_pps <= 0";
    let port =
      (* The attacker ignores every response (open loop): SYN-ACKs and
         RSTs vanish here. *)
      Fabric.add_port fabric ~mac:(mac_of_ip src_ip) ~ip:src_ip
        ~rx:(fun _ -> ())
        ()
    in
    let f =
      {
        fl_engine = engine;
        fl_port = port;
        fl_src_ip = src_ip;
        fl_dst_ip = dst_ip;
        fl_dst_port = dst_port;
        fl_interval = Int.max 1 (1_000_000_000_000 / rate_pps);
        fl_src_ports = Int.max 1 src_ports;
        fl_next_port = 0;
        fl_sent = 0;
        fl_stopped = false;
      }
    in
    Sim.Engine.schedule engine f.fl_interval (flood_tick f);
    f

  let stop f = f.fl_stopped <- true
  let sent f = f.fl_sent
end
