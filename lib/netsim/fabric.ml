(* Typed tables: a lookup hashes and compares an int directly, with no
   polymorphic [compare]. None of them is iterated. *)
module Int_tbl = Hashtbl.Make (Int)

type shaping = {
  rate_gbps : float;
  queue_bytes : int;
  ecn_threshold_bytes : int;
}

type t = {
  engine : Sim.Engine.t;  (* default home of a port *)
  switch_latency : Sim.Time.t;
  seed : int64;
  mutable loss : float;
  mutable ports : port list;
  by_mac : port Int_tbl.t;
  by_ip : port Int_tbl.t;
  (* One conservative channel per ordered pair of distinct port-home
     LPs, keyed by [lp_pair], with the switch latency as lookahead;
     empty until [partition]. *)
  mutable partitioned : bool;
  channels : Sim.Engine.Cluster.channel Int_tbl.t;
}

and port = {
  fabric : t;
  home : Sim.Engine.t;  (* home LP: serialisation + delivery run here *)
  mac : int;
  ip : int;
  rate_gbps : float;
  rx : Tcp.Segment.frame -> unit;
  mutable tx_free : Sim.Time.t;  (* ingress serialisation *)
  mutable egress_free : Sim.Time.t;
  (* Both links are FIFO servers whose finish times only grow, so each
     keeps its in-flight frames in a stream on [home] rather than one
     wheel entry per frame: [tx_stream] holds same-LP arrivals at the
     switch output, [egress_stream] deliveries off the egress link. *)
  tx_stream : Sim.Engine.Stream.t;
  egress_stream : Sim.Engine.Stream.t;
  mutable egress_queued : int;  (* bytes committed but not yet delivered *)
  mutable shaping : shaping option;
  mutable tx_fault : fault_hook option;
  mutable rx_fault : fault_hook option;
  (* Per-port statistics: bumped on the port's home LP, summed by the
     fabric-wide accessors. *)
  mutable p_delivered : int;
  mutable p_dropped_queue : int;
  mutable p_ecn_marked : int;
  mutable p_dropped_loss : int;  (* drawn at the source *)
  mutable p_dropped_unroutable : int;  (* routed at the source *)
  p_rng : Sim.Rng.t;  (* loss draws, keyed by mac *)
}

(* A fault hook intercepts a frame and decides its fate by invoking
   the continuation zero (drop), one (pass, possibly mutated or
   delayed via the engine) or several (duplicate) times. *)
and fault_hook = Tcp.Segment.frame -> (Tcp.Segment.frame -> unit) -> unit

let create engine ?(switch_latency = Sim.Time.us 1) ?(seed = 42L) () =
  {
    engine;
    switch_latency;
    seed;
    loss = 0.;
    ports = [];
    by_mac = Int_tbl.create 16;
    by_ip = Int_tbl.create 16;
    partitioned = false;
    channels = Int_tbl.create 16;
  }

let set_loss t p = t.loss <- p

let add_port t ?engine ?(rate_gbps = 40.0) ~mac ~ip ~rx () =
  if t.partitioned then
    invalid_arg "Fabric.add_port: fabric is already partitioned";
  let engine = match engine with Some e -> e | None -> t.engine in
  let port =
    {
      fabric = t;
      home = engine;
      mac;
      ip;
      rate_gbps;
      rx;
      tx_free = Sim.Time.zero;
      egress_free = Sim.Time.zero;
      tx_stream = Sim.Engine.Stream.create engine;
      egress_stream = Sim.Engine.Stream.create engine;
      egress_queued = 0;
      shaping = None;
      tx_fault = None;
      rx_fault = None;
      p_delivered = 0;
      p_dropped_queue = 0;
      p_ecn_marked = 0;
      p_dropped_loss = 0;
      p_dropped_unroutable = 0;
      p_rng = Sim.Rng.stream ~seed:t.seed ~key:mac;
    }
  in
  t.ports <- port :: t.ports;
  Int_tbl.replace t.by_mac mac port;
  Int_tbl.replace t.by_ip ip port;
  port

(* The (src, dst) pair of LP ids as one int key, allocating nothing:
   LP ids count the LPs of one cluster, far below 2^31. *)
let lp_pair src dst =
  (Sim.Engine.Local.id src lsl 31) lor Sim.Engine.Local.id dst

let partition t ~cluster =
  if t.partitioned then invalid_arg "Fabric.partition: already partitioned";
  t.partitioned <- true;
  List.iter
    (fun (src : port) ->
      List.iter
        (fun (dst : port) ->
          if src.home != dst.home then begin
            let key = lp_pair src.home dst.home in
            if not (Int_tbl.mem t.channels key) then
              Int_tbl.replace t.channels key
                (Sim.Engine.Cluster.channel cluster ~src:src.home
                   ~dst:dst.home ~min_latency:t.switch_latency)
          end)
        t.ports)
    t.ports

let partitioned t = t.partitioned

let shape_port _t port ~rate_gbps ~queue_bytes ~ecn_threshold_bytes =
  port.shaping <- Some { rate_gbps; queue_bytes; ecn_threshold_bytes }

let wire_time ~rate_gbps ~bytes =
  let bytes = Int.max bytes 64 in
  let on_wire = bytes + 24 in
  int_of_float (Float.round (float_of_int (8 * on_wire) *. 1000. /. rate_gbps))

(* A frame in flight is a frame plus, for a payload carried by
   reference, the payload's length and the function that reads it; a
   frame whose payload is already in its segment has length 0 and the
   reader [built]. A by-reference frame holds an empty payload and no
   checksum until [build] reads the payload and computes the checksum:
   when the frame is handed to the destination port, before a fault
   hook sees it, or before it crosses LPs. A dropped frame is never
   built. *)
let built : unit -> Bytes.t =
 fun () -> invalid_arg "Fabric: frame already built"

let build frame read =
  if read == built then frame
  else
    let open Tcp.Segment in
    make_frame ~vlan:frame.vlan ~ecn:frame.ecn ~src_mac:frame.src_mac
      ~dst_mac:frame.dst_mac
      { frame.seg with payload = read () }

(* Hand a frame to the destination port's receiver, through its
   ingress fault stage if one is attached. *)
let rx_into (dst : port) frame read =
  let frame = build frame read in
  match dst.rx_fault with None -> dst.rx frame | Some hook -> hook frame dst.rx

(* Runs on the destination port's home LP. [len] is the length of a
   by-reference payload (0 for a built frame). *)
let deliver _t (dst : port) frame len read =
  let now = Sim.Engine.now dst.home in
  let bytes = Tcp.Segment.frame_wire_len frame + len in
  match dst.shaping with
  | None ->
      (* Unshaped: serialise onto the destination link at port rate. *)
      let ser = wire_time ~rate_gbps:dst.rate_gbps ~bytes in
      let start = Int.max now dst.egress_free in
      dst.egress_free <- start + ser;
      Sim.Engine.Stream.schedule_at dst.egress_stream dst.egress_free
        (fun () ->
          dst.p_delivered <- dst.p_delivered + 1;
          rx_into dst frame read)
  | Some s ->
      if dst.egress_queued + bytes > s.queue_bytes then
        dst.p_dropped_queue <- dst.p_dropped_queue + 1
      else begin
        let frame =
          if
            dst.egress_queued > s.ecn_threshold_bytes
            && (frame.Tcp.Segment.ecn = Tcp.Segment.Ect0
               || frame.Tcp.Segment.ecn = Tcp.Segment.Ect1)
          then begin
            dst.p_ecn_marked <- dst.p_ecn_marked + 1;
            { frame with Tcp.Segment.ecn = Tcp.Segment.Ce }
          end
          else frame
        in
        dst.egress_queued <- dst.egress_queued + bytes;
        let ser = wire_time ~rate_gbps:s.rate_gbps ~bytes in
        let start = Int.max now dst.egress_free in
        dst.egress_free <- start + ser;
        Sim.Engine.Stream.schedule_at dst.egress_stream dst.egress_free
          (fun () ->
            dst.egress_queued <- dst.egress_queued - bytes;
            dst.p_delivered <- dst.p_delivered + 1;
            rx_into dst frame read)
      end

let route t frame =
  match Int_tbl.find_opt t.by_mac frame.Tcp.Segment.dst_mac with
  | Some p -> Some p
  | None -> Int_tbl.find_opt t.by_ip frame.Tcp.Segment.seg.dst_ip

(* Returns [false] if it read a by-reference payload: a frame crossing
   LPs is built here, on the source LP, which owns the payload's
   buffer. *)
let transmit_clean port frame len read =
  let t = port.fabric in
  let now = Sim.Engine.now port.home in
  let bytes = Tcp.Segment.frame_wire_len frame + len in
  let ser = wire_time ~rate_gbps:port.rate_gbps ~bytes in
  let start = Int.max now port.tx_free in
  port.tx_free <- start + ser;
  let arrival = port.tx_free + t.switch_latency in
  (* The loss draw comes from the source port's own stream (keyed by
     mac) and routing happens at transmit time: the destination LP
     must be known to pick the channel, and a per-port stream keeps
     the draws independent of how ports are spread over LPs. *)
  if t.loss > 0. && Sim.Rng.bool port.p_rng t.loss then begin
    port.p_dropped_loss <- port.p_dropped_loss + 1;
    true
  end
  else
    match route t frame with
    | None ->
        port.p_dropped_unroutable <- port.p_dropped_unroutable + 1;
        true
    | Some dst ->
        if dst.home == port.home then begin
          Sim.Engine.Stream.schedule_at port.tx_stream arrival (fun () ->
              deliver t dst frame len read);
          true
        end
        else begin
          let frame = build frame read in
          let ch = Int_tbl.find t.channels (lp_pair port.home dst.home) in
          Sim.Engine.Cluster.send ch ~at:arrival (fun () ->
              deliver t dst frame 0 built);
          read == built
        end

let transmit_built port frame = ignore (transmit_clean port frame 0 built)

let transmit port frame =
  match port.tx_fault with
  | None -> transmit_built port frame
  | Some hook -> hook frame (transmit_built port)

let transmit_ref port frame ~len ~read =
  match port.tx_fault with
  | None -> transmit_clean port frame len read
  | Some hook ->
      hook (build frame read) (transmit_built port);
      false

let set_tx_fault port hook = port.tx_fault <- hook
let set_rx_fault port hook = port.rx_fault <- hook

let sum_ports t f = List.fold_left (fun acc p -> acc + f p) 0 t.ports
let delivered t = sum_ports t (fun p -> p.p_delivered)

let dropped_loss t = sum_ports t (fun p -> p.p_dropped_loss)
let dropped_queue t = sum_ports t (fun p -> p.p_dropped_queue)
let dropped_unroutable t = sum_ports t (fun p -> p.p_dropped_unroutable)

let ecn_marked t = sum_ports t (fun p -> p.p_ecn_marked)
