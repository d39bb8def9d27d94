(* Pure GRO/TSO descriptor arithmetic (§3.4 batching).

   Kept free of datapath state so the property tests can check the
   round-trip laws directly: [split_payload] inverts payload
   concatenation, and [split_desc] re-derives exactly the wire frames
   an unbatched sender would have produced (same sequence numbers,
   same FIN/CWR placement). *)

module Seq32 = Tcp.Seq32

(* The sequence number one past [s]'s payload: a following segment is
   GRO-chainable iff its [seq] equals this. *)
let chain_next (s : Meta.rx_summary) =
  Seq32.add s.Meta.seq (Bytes.length s.Meta.payload)

let chainable ~next (s : Meta.rx_summary) =
  Bytes.length s.Meta.payload > 0 && Seq32.diff s.Meta.seq next = 0

(* Merge adjacent in-sequence segments (oldest first) into one
   descriptor. Identity carried by the head (gseq, seq); acknowledgment
   state by the newest acking segment (cumulative ACKs supersede);
   event flags OR together (an ECN mark anywhere in the window must
   survive the merge); FIN can only be the tail's — a mid-batch FIN is
   not chainable in the first place. *)
let merge = function
  | [] -> invalid_arg "Coalesce.merge: empty"
  | [ s ] -> s
  | head :: _ as segs ->
      let last = List.nth segs (List.length segs - 1) in
      let payload =
        Bytes.concat Bytes.empty (List.map (fun s -> s.Meta.payload) segs)
      in
      let has_ack = List.exists (fun s -> s.Meta.has_ack) segs in
      let ack_seq, wnd =
        List.fold_left
          (fun acc s -> if s.Meta.has_ack then (s.Meta.ack_seq, s.Meta.wnd) else acc)
          (head.Meta.ack_seq, head.Meta.wnd)
          segs
      in
      {
        head with
        Meta.payload;
        has_ack;
        ack_seq;
        wnd;
        fin = last.Meta.fin;
        psh = List.exists (fun s -> s.Meta.psh) segs;
        ece = List.exists (fun s -> s.Meta.ece) segs;
        cwr = List.exists (fun s -> s.Meta.cwr) segs;
        ecn_ce = List.exists (fun s -> s.Meta.ecn_ce) segs;
        ts = last.Meta.ts;
        arrival = last.Meta.arrival;
      }

(* Cut a payload into MSS-sized wire chunks (last may be short). *)
let split_payload ~mss payload =
  let len = Bytes.length payload in
  if len <= mss then [ payload ]
  else begin
    let n = (len + mss - 1) / mss in
    List.init n (fun i ->
        let off = i * mss in
        Bytes.sub payload off (Int.min mss (len - off)))
  end

(* Number of wire frames a TSO descriptor of [len] bytes becomes. *)
let split_count ~mss len = if len <= mss then 1 else (len + mss - 1) / mss

(* Expand a TSO descriptor back into per-frame descriptors: chunk [i]
   starts [i*mss] into the stream (sequence numbers wrap mod 2^32),
   FIN rides the last frame only, CWR the first only. ACK/window are
   replicated — they are receiver state, identical across the burst. *)
let split_desc ~mss (d : Meta.tx_desc) payload =
  let chunks = split_payload ~mss payload in
  let n = List.length chunks in
  List.mapi
    (fun i chunk ->
      let off = i * mss in
      let dc =
        {
          d with
          Meta.t_pos = d.Meta.t_pos + off;
          t_len = Bytes.length chunk;
          t_seq = Seq32.add d.Meta.t_seq off;
          t_fin = d.Meta.t_fin && i = n - 1;
          t_cwr = d.Meta.t_cwr && i = 0;
        }
      in
      (dc, chunk))
    chunks
