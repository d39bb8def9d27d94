(* Typed tables: a lookup hashes and compares an int directly, with no
   polymorphic [compare]. None of them is iterated. *)
module Int_tbl = Hashtbl.Make (Int)

type shaping = {
  rate_gbps : float;
  queue_bytes : int;
  ecn_threshold_bytes : int;
}

(* A connection's constant frame fields and the reader of its payload
   bytes: a deferred segment names its source instead of carrying a
   header or a payload of its own. *)
type source = {
  s_src_mac : int;
  s_dst_mac : int;
  s_src_ip : int;
  s_dst_ip : int;
  s_src_port : int;
  s_dst_port : int;
  s_read : off:int -> len:int -> Bytes.t;
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
  (* The deferred-segment FIFO (see [transmit_segment]): a ring of
     [q_src]/[q_dst] slots and [stride] ints per segment, whose entries
     [tx_stream] pops in order through [q_pop], one closure per port. *)
  mutable q_src : source array;
  mutable q_dst : port array;
  mutable q_int : int array;
  mutable q_head : int;
  mutable q_len : int;
  mutable q_pop : unit -> unit;
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

(* Routing allocates nothing: [Not_found] for an unroutable frame. *)
let route t ~mac ~ip =
  match Int_tbl.find t.by_mac mac with
  | p -> p
  | exception Not_found -> Int_tbl.find t.by_ip ip

(* Ingress serialisation of [bytes] and the loss draw, both at
   transmit time: [false] for a frame lost in the fabric. The loss draw
   comes from the source port's own stream (keyed by mac), so the draws
   do not depend on how ports are spread over LPs. *)
let serialise port ~bytes =
  let t = port.fabric in
  let ser = wire_time ~rate_gbps:port.rate_gbps ~bytes in
  port.tx_free <- Int.max (Sim.Engine.now port.home) port.tx_free + ser;
  if t.loss > 0. && Sim.Rng.bool port.p_rng t.loss then begin
    port.p_dropped_loss <- port.p_dropped_loss + 1;
    false
  end
  else true

let arrival port = port.tx_free + port.fabric.switch_latency

(* Send a frame that crosses LPs: built here, on the source LP, which
   owns the payload's buffer. *)
let send_across port dst frame =
  let t = port.fabric in
  let ch = Int_tbl.find t.channels (lp_pair port.home dst.home) in
  Sim.Engine.Cluster.send ch ~at:(arrival port) (fun () ->
      deliver t dst frame 0 built)

(* Returns [false] if it read a by-reference payload. Routing happens
   at transmit time: the destination LP must be known to pick the
   channel. *)
let transmit_clean port frame len read =
  let t = port.fabric in
  if not (serialise port ~bytes:(Tcp.Segment.frame_wire_len frame + len))
  then true
  else
    match
      route t ~mac:frame.Tcp.Segment.dst_mac ~ip:frame.Tcp.Segment.seg.dst_ip
    with
    | exception Not_found ->
        port.p_dropped_unroutable <- port.p_dropped_unroutable + 1;
        true
    | dst ->
        if dst.home == port.home then begin
          Sim.Engine.Stream.schedule_at port.tx_stream (arrival port)
            (fun () -> deliver t dst frame len read);
          true
        end
        else begin
          send_across port dst (build frame read);
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

(* --- Deferred segments ---------------------------------------------- *)

let source ~src_mac ~dst_mac ~src_ip ~dst_ip ~src_port ~dst_port ~read =
  {
    s_src_mac = src_mac;
    s_dst_mac = dst_mac;
    s_src_ip = src_ip;
    s_dst_ip = dst_ip;
    s_src_port = src_port;
    s_dst_port = dst_port;
    s_read = read;
  }

let source_read src ~off ~len = src.s_read ~off ~len

let segment_frame src ~seq ~ack ~flags ~window ~tsval ~tsecr ~payload =
  let open Tcp.Segment in
  make_frame ~ecn:Ect0 ~src_mac:src.s_src_mac ~dst_mac:src.s_dst_mac
    (make ~flags:(flags_of_bits flags) ~window
       ~options:{ mss = None; ts = Some (tsval, tsecr) }
       ~payload ~src_ip:src.s_src_ip ~dst_ip:src.s_dst_ip
       ~src_port:src.s_src_port ~dst_port:src.s_dst_port ~seq ~ack_seq:ack ())

(* The wire bytes of a segment frame other than its payload. *)
let segment_overhead =
  Tcp.Segment.frame_overhead ~vlan:None
    { Tcp.Segment.mss = None; ts = Some (0, 0) }

(* A popped FIFO slot's source: the slot must not keep a torn-down
   connection's buffer alive. *)
let no_source =
  source ~src_mac:0 ~dst_mac:0 ~src_ip:0 ~dst_ip:0 ~src_port:0 ~dst_port:0
    ~read:(fun ~off:_ ~len:_ -> Bytes.empty)

(* Ints per FIFO entry: seq, ack, flags, window, tsval, tsecr, payload
   position, payload length. *)
let stride = 8

(* Only called when the ring is full; unrolls it to start at 0. *)
let grow_fifo port dst =
  let cap = Array.length port.q_src in
  let cap' = Int.max 16 (2 * cap) in
  let unroll a fill width =
    let b = Array.make (cap' * width) fill in
    let first = (cap - port.q_head) * width in
    Array.blit a (port.q_head * width) b 0 first;
    Array.blit a 0 b first (port.q_head * width);
    b
  in
  port.q_src <- unroll port.q_src no_source 1;
  port.q_dst <- unroll port.q_dst dst 1;
  port.q_int <- unroll port.q_int 0 stride;
  port.q_head <- 0

(* [tx_stream]'s callback for a deferred segment: the FIFO's head
   leaves the switch and is built, header, payload and checksum at
   once. *)
let pop_segment port () =
  let h = port.q_head in
  let src = Array.unsafe_get port.q_src h
  and dst = Array.unsafe_get port.q_dst h
  and q = port.q_int
  and i = h * stride in
  Array.unsafe_set port.q_src h no_source;
  port.q_head <- (h + 1) land (Array.length port.q_src - 1);
  port.q_len <- port.q_len - 1;
  let frame =
    segment_frame src ~seq:q.(i) ~ack:q.(i + 1) ~flags:q.(i + 2)
      ~window:q.(i + 3) ~tsval:q.(i + 4) ~tsecr:q.(i + 5)
      ~payload:(src.s_read ~off:q.(i + 6) ~len:q.(i + 7))
  in
  deliver port.fabric dst frame 0 built

let transmit_segment port src ~seq ~ack ~flags ~window ~tsval ~tsecr ~pos
    ~len =
  match port.tx_fault with
  | Some hook ->
      hook
        (segment_frame src ~seq ~ack ~flags ~window ~tsval ~tsecr
           ~payload:(src.s_read ~off:pos ~len))
        (transmit_built port);
      false
  | None -> (
      let t = port.fabric in
      if not (serialise port ~bytes:(segment_overhead + len)) then true
      else
        match route t ~mac:src.s_dst_mac ~ip:src.s_dst_ip with
        | exception Not_found ->
            port.p_dropped_unroutable <- port.p_dropped_unroutable + 1;
            true
        | dst when dst.home != port.home ->
            send_across port dst
              (segment_frame src ~seq ~ack ~flags ~window ~tsval ~tsecr
                 ~payload:(src.s_read ~off:pos ~len));
            false
        | dst ->
            if port.q_len = Array.length port.q_src then grow_fifo port dst;
            let slot =
              (port.q_head + port.q_len) land (Array.length port.q_src - 1)
            in
            let q = port.q_int and i = slot * stride in
            Array.unsafe_set port.q_src slot src;
            Array.unsafe_set port.q_dst slot dst;
            q.(i) <- seq;
            q.(i + 1) <- ack;
            q.(i + 2) <- flags;
            q.(i + 3) <- window;
            q.(i + 4) <- tsval;
            q.(i + 5) <- tsecr;
            q.(i + 6) <- pos;
            q.(i + 7) <- len;
            port.q_len <- port.q_len + 1;
            Sim.Engine.Stream.schedule_at port.tx_stream (arrival port)
              port.q_pop;
            true)

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
      q_src = [||];
      q_dst = [||];
      q_int = [||];
      q_head = 0;
      q_len = 0;
      q_pop = ignore;
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
  port.q_pop <- pop_segment port;
  t.ports <- port :: t.ports;
  Int_tbl.replace t.by_mac mac port;
  Int_tbl.replace t.by_ip ip port;
  port

let set_tx_fault port hook = port.tx_fault <- hook
let set_rx_fault port hook = port.rx_fault <- hook

let sum_ports t f = List.fold_left (fun acc p -> acc + f p) 0 t.ports
let delivered t = sum_ports t (fun p -> p.p_delivered)

let dropped_loss t = sum_ports t (fun p -> p.p_dropped_loss)
let dropped_queue t = sum_ports t (fun p -> p.p_dropped_queue)
let dropped_unroutable t = sum_ports t (fun p -> p.p_dropped_unroutable)

let ecn_marked t = sum_ports t (fun p -> p.p_ecn_marked)
