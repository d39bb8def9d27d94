(* FlexTOE core unit tests: connection state, protocol stage logic,
   sequencer, Carousel scheduler. *)

module C = Flextoe.Conn_state
module P = Flextoe.Protocol
module M = Flextoe.Meta

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let cfg = Flextoe.Config.default

let mk_conn ?(rx_buf = 65536) ?(tx_buf = 65536) () =
  let flow =
    Tcp.Flow.v ~local_ip:1 ~local_port:80 ~remote_ip:2 ~remote_port:4000
  in
  C.create ~idx:0 ~flow ~peer_mac:2 ~flow_group:0 ~tx_isn:5000 ~rx_isn:9000
    ~opaque:0 ~ctx_id:0 ~rx_buf_bytes:rx_buf ~tx_buf_bytes:tx_buf ()

let gseq = ref 0

let alloc_gseq () =
  incr gseq;
  !gseq

let summary ?(seq = 0) ?(ack_seq = 0) ?(has_ack = true) ?(payload = Bytes.empty)
    ?(wnd = 512) ?(fin = false) ?(ece = false) ?(cwr = false)
    ?(ecn_ce = false) ?ts () =
  {
    M.rx_gseq = 0;
    conn = 0;
    seq;
    ack_seq;
    has_ack;
    wnd;
    payload;
    fin;
    psh = false;
    ece;
    cwr;
    ecn_ce;
    ts;
    arrival = 0;
  }

(* --- Conn_state mappings ------------------------------------------------ *)

let test_state_partition_sizes () =
  check_int "protocol partition" 43 C.state_bytes_proto;
  check_int "post partition" 51 C.state_bytes_post;
  check_int "pre partition (Table 5)" 14 C.state_bytes_pre;
  check_int "total 108B" 108
    (C.state_bytes_pre + C.state_bytes_proto + C.state_bytes_post)

let test_seq_pos_mapping () =
  let c = mk_conn () in
  check_int "pos 0 is isn+1" 5001 (C.tx_seq_of_pos c 0);
  check_int "inverse" 1234 (C.tx_pos_of_seq c (C.tx_seq_of_pos c 1234));
  check_int "rx mapping" 0 (C.rx_pos_of_seq c 9001);
  check_int "rx next pos starts at 0" 0 (C.rx_next_pos c)

(* --- Protocol: RX ---------------------------------------------------------- *)

let test_rx_in_order_data () =
  let c = mk_conn () in
  let v =
    P.rx cfg ~now:0 c
      (summary ~seq:9001 ~payload:(Bytes.of_string "hello") ())
      ~alloc_gseq
  in
  (match v.M.v_place with
  | Some (0, b) -> Alcotest.(check string) "payload" "hello" (Bytes.to_string b)
  | _ -> Alcotest.fail "expected placement at 0");
  check_int "advance" 5 v.M.v_rx_advance;
  check_bool "acked" true (v.M.v_ack <> None);
  check_int "window shrank" (65536 - 5) c.C.proto.C.rx_avail;
  match v.M.v_ack with
  | Some a -> check_int "cumulative ack" 9006 a.M.a_ack
  | None -> ()

let test_rx_pure_ack_frees_tx () =
  let c = mk_conn () in
  (* Pretend we sent 1000 bytes. *)
  c.C.proto.C.tx_tail_pos <- 1000;
  c.C.proto.C.tx_next_pos <- 1000;
  c.C.proto.C.tx_max_pos <- 1000;
  let v =
    P.rx cfg ~now:0 c (summary ~ack_seq:(C.tx_seq_of_pos c 600) ())
      ~alloc_gseq
  in
  check_int "600 freed" 600 v.M.v_tx_freed;
  check_int "acked pos" 600 c.C.proto.C.tx_acked_pos;
  check_bool "wakes tx" true v.M.v_wake_tx;
  check_bool "no ack for pure ack" true (v.M.v_ack = None)

let test_rx_dupacks_trigger_fast_retx () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 5000;
  c.C.proto.C.tx_next_pos <- 3000;
  c.C.proto.C.tx_max_pos <- 3000;
  c.C.proto.C.tx_acked_pos <- 1000;
  let dup () =
    P.rx cfg ~now:0 c (summary ~ack_seq:(C.tx_seq_of_pos c 1000) ())
      ~alloc_gseq
  in
  (* The first ACK carries a new advertised window: a window update,
     not a duplicate. Duplicates start once the window is stable. *)
  ignore (dup ());
  let v1 = dup () and v2 = dup () in
  check_bool "not yet" false (v1.M.v_fast_retx || v2.M.v_fast_retx);
  let v3 = dup () in
  check_bool "third dupack fires" true v3.M.v_fast_retx;
  check_int "go-back-N reset" 1000 c.C.proto.C.tx_next_pos;
  (* No immediate second fast retransmit (recover gate). *)
  c.C.proto.C.tx_next_pos <- 3000;
  c.C.proto.C.tx_max_pos <- 3000;
  let v4 = dup () and v5 = dup () and v6 = dup () in
  check_bool "gated during recovery" false
    (v4.M.v_fast_retx || v5.M.v_fast_retx || v6.M.v_fast_retx)

let test_rx_ooo_generates_dup_ack () =
  let c = mk_conn () in
  let v =
    P.rx cfg ~now:0 c
      (summary ~seq:10001 ~payload:(Bytes.make 10 'x') ())
      ~alloc_gseq
  in
  (match v.M.v_place with
  | Some (pos, _) -> check_int "placed at hole offset" 1000 pos
  | None -> Alcotest.fail "ooo data should be placed");
  check_int "no advance" 0 v.M.v_rx_advance;
  (match v.M.v_ack with
  | Some a -> check_int "acks expected seq" 9001 a.M.a_ack
  | None -> Alcotest.fail "dup ack expected");
  check_bool "hole tracked" true (Tcp.Reassembly.has_hole c.C.proto.C.reasm)

let test_rx_fin_in_order () =
  let c = mk_conn () in
  let v =
    P.rx cfg ~now:0 c
      (summary ~seq:9001 ~payload:(Bytes.of_string "bye") ~fin:true ())
      ~alloc_gseq
  in
  check_bool "fin reached" true v.M.v_fin_reached;
  check_bool "rx_fin" true c.C.proto.C.rx_fin;
  match v.M.v_ack with
  | Some a -> check_int "fin consumes a seq" 9005 a.M.a_ack
  | None -> Alcotest.fail "fin must be acked"

let test_rx_fin_out_of_order_ignored () =
  let c = mk_conn () in
  (* FIN whose data hasn't arrived yet. *)
  let v =
    P.rx cfg ~now:0 c (summary ~seq:9500 ~fin:true ()) ~alloc_gseq
  in
  check_bool "not consumed" false v.M.v_fin_reached;
  check_bool "state unchanged" false c.C.proto.C.rx_fin

let test_rx_ecn_echo () =
  let c = mk_conn () in
  let v =
    P.rx cfg ~now:0 c
      (summary ~seq:9001 ~payload:(Bytes.make 3 'x') ~ecn_ce:true ())
      ~alloc_gseq
  in
  (match v.M.v_ack with
  | Some a -> check_bool "ECE echoed" true a.M.a_ece
  | None -> Alcotest.fail "ack expected");
  (* Echo persists until CWR. *)
  let v2 =
    P.rx cfg ~now:0 c (summary ~seq:9004 ~payload:(Bytes.make 3 'x') ())
      ~alloc_gseq
  in
  (match v2.M.v_ack with
  | Some a -> check_bool "still echoing" true a.M.a_ece
  | None -> ());
  let v3 =
    P.rx cfg ~now:0 c
      (summary ~seq:9007 ~payload:(Bytes.make 3 'x') ~cwr:true ())
      ~alloc_gseq
  in
  match v3.M.v_ack with
  | Some a -> check_bool "CWR clears echo" false a.M.a_ece
  | None -> ()

let test_rx_ece_on_ack_counts_ecn_bytes () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 1000;
  c.C.proto.C.tx_next_pos <- 1000;
  c.C.proto.C.tx_max_pos <- 1000;
  let v =
    P.rx cfg ~now:0 c
      (summary ~ack_seq:(C.tx_seq_of_pos c 500) ~ece:true ())
      ~alloc_gseq
  in
  check_int "ack bytes" 500 v.M.v_ack_bytes;
  check_int "ecn bytes" 500 v.M.v_ecn_bytes;
  check_bool "cwr pending on sender" true c.C.proto.C.cwr_pending

let test_rx_rtt_from_timestamp () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 100;
  c.C.proto.C.tx_next_pos <- 100;
  c.C.proto.C.tx_max_pos <- 100;
  let now = Sim.Time.us 150 in
  (* Peer echoes our tsval of 100us in its ack at 150us: RTT 50us. *)
  let v =
    P.rx cfg ~now c
      (summary ~ack_seq:(C.tx_seq_of_pos c 100) ~ts:(7, 100) ())
      ~alloc_gseq
  in
  check_int "rtt sample 50us" 50_000 v.M.v_rtt_sample_ns

let test_rx_bogus_ack_ignored () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 100;
  c.C.proto.C.tx_next_pos <- 100;
  c.C.proto.C.tx_max_pos <- 100;
  let v =
    P.rx cfg ~now:0 c (summary ~ack_seq:(C.tx_seq_of_pos c 5000) ())
      ~alloc_gseq
  in
  check_int "nothing freed" 0 v.M.v_tx_freed;
  check_int "state untouched" 0 c.C.proto.C.tx_acked_pos

let test_rx_window_update_wakes () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 4000;
  c.C.proto.C.tx_next_pos <- 2000;
  c.C.proto.C.tx_max_pos <- 2000;
  c.C.proto.C.remote_win <- 2000;  (* window full *)
  let v =
    P.rx cfg ~now:0 c
      (summary ~ack_seq:(C.tx_seq_of_pos c 0) ~wnd:64 ())
      ~alloc_gseq
  in
  (* 64 << 7 = 8192 > in-flight: flow can move again. *)
  check_bool "window open wakes" true v.M.v_wake_tx;
  check_int "remote window scaled" 8192 c.C.proto.C.remote_win

(* --- Protocol: TX ------------------------------------------------------------ *)

let test_tx_segments_stream () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 3000;
  let d1 = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_int "first at 0" 0 d1.M.t_pos;
  check_int "mss-sized" cfg.Flextoe.Config.mss d1.M.t_len;
  check_int "seq" (C.tx_seq_of_pos c 0) d1.M.t_seq;
  check_bool "more to send" true d1.M.t_more;
  let d2 = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_int "second chunk" cfg.Flextoe.Config.mss d2.M.t_pos;
  check_int "full mss again" cfg.Flextoe.Config.mss d2.M.t_len;
  check_bool "still more" true d2.M.t_more;
  let d3 = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_int "remainder" (3000 - (2 * cfg.Flextoe.Config.mss)) d3.M.t_len;
  check_bool "no more" false d3.M.t_more;
  check_bool "fourth is none" true (P.tx cfg ~now:0 c ~alloc_gseq = None)

let test_tx_respects_remote_window () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 3000;
  c.C.proto.C.remote_win <- 100;
  let d = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_int "clamped to window" 100 d.M.t_len;
  check_bool "window exhausted" false d.M.t_more;
  check_bool "stalled" true (P.tx cfg ~now:0 c ~alloc_gseq = None)

let test_tx_fin_piggyback () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 10;
  c.C.proto.C.tx_fin <- true;
  let d = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_bool "fin on last segment" true d.M.t_fin;
  check_bool "fin_sent" true c.C.proto.C.fin_sent

let test_tx_fin_only_segment () =
  let c = mk_conn () in
  c.C.proto.C.tx_fin <- true;
  let d = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_int "empty fin" 0 d.M.t_len;
  check_bool "fin flag" true d.M.t_fin;
  check_bool "nothing after fin" true (P.tx cfg ~now:0 c ~alloc_gseq = None)

let test_tx_cwr_set_once () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 5000;
  c.C.proto.C.cwr_pending <- true;
  let d1 = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  let d2 = Option.get (P.tx cfg ~now:0 c ~alloc_gseq) in
  check_bool "first carries CWR" true d1.M.t_cwr;
  check_bool "second does not" false d2.M.t_cwr

(* --- Protocol: HC ---------------------------------------------------------------- *)

let test_hc_tx_avail () =
  let c = mk_conn () in
  let r = P.hc cfg ~now:0 c (M.Tx_avail 500) ~alloc_gseq in
  check_bool "wakes" true r.P.hc_wake_tx;
  check_int "tail moved" 500 c.C.proto.C.tx_tail_pos

let test_hc_rx_credit_window_update () =
  let c = mk_conn ~rx_buf:4096 () in
  c.C.proto.C.rx_avail <- 0;  (* app stopped reading; window closed *)
  let r = P.hc cfg ~now:0 c (M.Rx_credit 4096) ~alloc_gseq in
  check_bool "window update emitted" true (r.P.hc_window_update <> None);
  check_int "window restored" 4096 c.C.proto.C.rx_avail;
  (* Small credits above the threshold don't spam updates. *)
  let r2 = P.hc cfg ~now:0 c (M.Rx_credit 100) ~alloc_gseq in
  check_bool "no update when open" true (r2.P.hc_window_update = None)

let test_hc_retransmit_reset () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 2000;
  c.C.proto.C.tx_next_pos <- 1500;
  c.C.proto.C.tx_max_pos <- 1500;
  c.C.proto.C.tx_acked_pos <- 300;
  c.C.proto.C.fin_sent <- true;
  let r = P.hc cfg ~now:77 c M.Retransmit ~alloc_gseq in
  check_bool "wakes" true r.P.hc_wake_tx;
  check_int "go-back-N" 300 c.C.proto.C.tx_next_pos;
  check_bool "fin resend allowed" false c.C.proto.C.fin_sent

(* --- Sequencer --------------------------------------------------------------------- *)

let test_sequencer_reorders () =
  let out = ref [] in
  let s = Flextoe.Sequencer.create ~name:"t" ~release:(fun v -> out := v :: !out) in
  let s0 = Flextoe.Sequencer.next_seq s in
  let s1 = Flextoe.Sequencer.next_seq s in
  let s2 = Flextoe.Sequencer.next_seq s in
  Flextoe.Sequencer.submit s ~seq:s2 "c";
  Flextoe.Sequencer.submit s ~seq:s0 "a";
  Alcotest.(check (list string)) "only prefix released" [ "a" ] (List.rev !out);
  Flextoe.Sequencer.submit s ~seq:s1 "b";
  Alcotest.(check (list string)) "rest drains in order" [ "a"; "b"; "c" ]
    (List.rev !out);
  (* Only [c] arrived ahead of its turn. *)
  check_int "reordered count" 1 (Flextoe.Sequencer.reordered s)

let test_sequencer_skip () =
  let out = ref [] in
  let s = Flextoe.Sequencer.create ~name:"t" ~release:(fun v -> out := v :: !out) in
  let s0 = Flextoe.Sequencer.next_seq s in
  let s1 = Flextoe.Sequencer.next_seq s in
  Flextoe.Sequencer.submit s ~seq:s1 "b";
  Flextoe.Sequencer.skip s ~seq:s0;
  Alcotest.(check (list string)) "skip unblocks" [ "b" ] (List.rev !out)

let test_sequencer_rejects_duplicates () =
  let s = Flextoe.Sequencer.create ~name:"t" ~release:ignore in
  let s0 = Flextoe.Sequencer.next_seq s in
  Flextoe.Sequencer.submit s ~seq:s0 ();
  Alcotest.check_raises "double submit"
    (Invalid_argument "t: duplicate sequence number") (fun () ->
      Flextoe.Sequencer.submit s ~seq:s0 ())

(* Every connection owns an RX-order sequencer, so one that never
   receives must cost only its record: [create] allocates no ring, and
   the first submit makes one. *)
let test_sequencer_fresh_holds_no_ring () =
  let s = Flextoe.Sequencer.create ~name:"t" ~release:ignore in
  let words () = Obj.reachable_words (Obj.repr s) in
  let fresh = words () in
  if fresh >= 32 then
    Alcotest.failf "a fresh sequencer reaches %d words (bound 32)" fresh;
  Flextoe.Sequencer.submit s ~seq:(Flextoe.Sequencer.next_seq s) ();
  check_bool "the first submit grows the ring" true (words () > fresh)

let prop_sequencer_any_permutation =
  QCheck.Test.make ~name:"sequencer: any submit order releases in order"
    ~count:200
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 3)) in
      let n = 50 in
      let out = ref [] in
      let s =
        Flextoe.Sequencer.create ~name:"t" ~release:(fun v -> out := v :: !out)
      in
      let seqs = Array.init n (fun _ -> Flextoe.Sequencer.next_seq s) in
      Sim.Rng.shuffle rng seqs;
      Array.iter (fun q -> Flextoe.Sequencer.submit s ~seq:q q) seqs;
      List.rev !out = List.init n (fun i -> i)
      && Flextoe.Sequencer.pending s = 0)

(* The ring of waiting slots starts at 64 entries: a window of several
   hundred outstanding seqs, submitted and skipped out of order for
   thousands of seqs, makes it wrap many times and grow. *)
let test_sequencer_ring_wraps_and_grows () =
  let rng = Sim.Rng.create 77L in
  let out = ref [] in
  let s =
    Flextoe.Sequencer.create ~name:"t" ~release:(fun v -> out := v :: !out)
  in
  let skipped = Hashtbl.create 64 in
  let outstanding = ref [] in
  let settle seq =
    if Sim.Rng.int rng 5 = 0 then begin
      Hashtbl.replace skipped seq ();
      Flextoe.Sequencer.skip s ~seq
    end
    else Flextoe.Sequencer.submit s ~seq seq
  in
  for round = 0 to 40 do
    (* Windows grow to 200 seqs, then shrink again. *)
    let width = if round < 20 then 10 * (round + 1) else 400 - (10 * round) in
    for _ = 1 to width do
      outstanding := Flextoe.Sequencer.next_seq s :: !outstanding
    done;
    let batch = Array.of_list !outstanding in
    Sim.Rng.shuffle rng batch;
    (* Settle all but a few; the rest stay outstanding across rounds. *)
    let keep = Int.min 3 (Array.length batch) in
    Array.iteri (fun i seq -> if i >= keep then settle seq) batch;
    outstanding := Array.to_list (Array.sub batch 0 keep)
  done;
  List.iter settle !outstanding;
  (* Seqs 0 .. allocated - 1 are all settled. *)
  let allocated = Flextoe.Sequencer.next_seq s in
  let rec expected seq acc =
    if seq < 0 then acc
    else expected (seq - 1) (if Hashtbl.mem skipped seq then acc else seq :: acc)
  in
  let expected = expected (allocated - 1) [] in
  Alcotest.(check (list int)) "every submitted seq, in order" expected
    (List.rev !out);
  check_int "nothing pending" 0 (Flextoe.Sequencer.pending s);
  check_int "released count" (List.length expected)
    (Flextoe.Sequencer.released s);
  Alcotest.check_raises "an already released seq is a duplicate"
    (Invalid_argument "t: duplicate sequence number") (fun () ->
      Flextoe.Sequencer.skip s ~seq:0);
  Alcotest.check_raises "a seq past the allocated ones"
    (Invalid_argument "t: sequence number was never allocated") (fun () ->
      Flextoe.Sequencer.submit s ~seq:(allocated + 1) 0)

(* --- Scheduler (Carousel) -------------------------------------------------------------- *)

let test_scheduler_round_robin () =
  let e = Sim.Engine.create () in
  let log = ref [] in
  let sch = ref None in
  let s =
    Flextoe.Scheduler.create e ~slot:(Sim.Time.us 1) ~slots:256 ~credits:1
      ~dispatch:(fun ~conn ->
        log := conn :: !log;
        (* Simulate a TX workflow completing a bit later. *)
        let sc = Option.get !sch in
        Sim.Engine.schedule e 100 (fun () ->
            Flextoe.Scheduler.on_sent sc ~conn ~bytes:100 ~more:true;
            Flextoe.Scheduler.credit_return sc))
  in
  sch := Some s;
  Flextoe.Scheduler.wakeup s ~conn:1;
  Flextoe.Scheduler.wakeup s ~conn:2;
  Sim.Engine.run ~until:(Sim.Time.ns 2) e ~max_events:200;
  let first_six =
    List.rev !log |> List.filteri (fun i _ -> i < 6)
  in
  Alcotest.(check (list int)) "alternates fairly" [ 1; 2; 1; 2; 1; 2 ]
    first_six

(* A dispatch cycle (the flow requeued, its credit back, the pump
   dispatching it again) allocates nothing once the flow and its
   queue exist. *)
let test_scheduler_dispatch_allocation () =
  let e = Sim.Engine.create () in
  let dispatched = ref 0 in
  let s =
    Flextoe.Scheduler.create e ~shards:2 ~slot:(Sim.Time.us 1) ~slots:256
      ~credits:1 ~dispatch:(fun ~conn:_ -> incr dispatched)
  in
  Flextoe.Scheduler.wakeup s ~conn:1;
  let cycle () =
    Flextoe.Scheduler.on_sent s ~conn:1 ~bytes:100 ~more:true;
    Flextoe.Scheduler.credit_return s
  in
  for _ = 1 to 100 do
    cycle ()
  done;
  let n = 10_000 in
  let before = Gc.minor_words () in
  for _ = 1 to n do
    cycle ()
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "dispatched every cycle" (n + 101) !dispatched;
  if words > 0.1 then
    Alcotest.failf "%.2f minor words per dispatch cycle (bound 0.1)" words

let test_scheduler_pacing () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  let sch = ref None in
  let s =
    Flextoe.Scheduler.create e ~slot:(Sim.Time.us 1) ~slots:4096 ~credits:4
      ~dispatch:(fun ~conn ->
        times := Sim.Engine.now e :: !times;
        let sc = Option.get !sch in
        Flextoe.Scheduler.on_sent sc ~conn ~bytes:1000 ~more:true;
        Flextoe.Scheduler.credit_return sc)
  in
  sch := Some s;
  (* 1000 bytes at 10 ps/byte = 10 ns per segment... below slot
     granularity; use a slower rate: 10_000 ps/byte -> 10 us/segment. *)
  Flextoe.Scheduler.set_interval s ~conn:5 ~ps_per_byte:10_000;
  Flextoe.Scheduler.wakeup s ~conn:5;
  Sim.Engine.run ~until:(Sim.Time.us 95) e;
  let n = List.length !times in
  (* ~1 segment per 10us over 95us, plus the initial one. *)
  check_bool "paced rate respected" true (n >= 9 && n <= 11)

let test_scheduler_uncongested_bypass () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let sch = ref None in
  let s =
    Flextoe.Scheduler.create e ~slot:(Sim.Time.us 1) ~slots:4096 ~credits:1
      ~dispatch:(fun ~conn ->
        incr count;
        let sc = Option.get !sch in
        Sim.Engine.schedule e 10 (fun () ->
            Flextoe.Scheduler.on_sent sc ~conn ~bytes:1500 ~more:true;
            Flextoe.Scheduler.credit_return sc))
  in
  sch := Some s;
  Flextoe.Scheduler.wakeup s ~conn:1;
  Sim.Engine.run ~until:(Sim.Time.us 10) e ~max_events:10_000;
  (* rate 0: no pacing, limited only by workflow latency. *)
  check_bool "work conserving" true (!count > 100)

let test_scheduler_idle_flow_stops () =
  let e = Sim.Engine.create () in
  let count = ref 0 in
  let sch = ref None in
  let s =
    Flextoe.Scheduler.create e ~slot:(Sim.Time.us 1) ~slots:16 ~credits:1
      ~dispatch:(fun ~conn ->
        incr count;
        let sc = Option.get !sch in
        Flextoe.Scheduler.on_sent sc ~conn ~bytes:0 ~more:false;
        Flextoe.Scheduler.credit_return sc)
  in
  sch := Some s;
  Flextoe.Scheduler.wakeup s ~conn:9;
  Sim.Engine.run e;
  check_int "dispatched once then idles" 1 !count;
  (* A wakeup during dispatch requeues exactly once. *)
  Flextoe.Scheduler.wakeup s ~conn:9;
  Sim.Engine.run e;
  check_int "re-armed" 2 !count

let test_scheduler_credit_gating () =
  let e = Sim.Engine.create () in
  let inflight = ref 0 and max_inflight = ref 0 in
  let sch = ref None in
  let s =
    Flextoe.Scheduler.create e ~slot:(Sim.Time.us 1) ~slots:16 ~credits:3
      ~dispatch:(fun ~conn ->
        incr inflight;
        if !inflight > !max_inflight then max_inflight := !inflight;
        let sc = Option.get !sch in
        Sim.Engine.schedule e 1000 (fun () ->
            decr inflight;
            Flextoe.Scheduler.on_sent sc ~conn ~bytes:100 ~more:true;
            Flextoe.Scheduler.credit_return sc))
  in
  sch := Some s;
  for conn = 1 to 10 do
    Flextoe.Scheduler.wakeup s ~conn
  done;
  Sim.Engine.run ~until:(Sim.Time.us 1) e ~max_events:5_000;
  check_bool "never exceeds credits" true (!max_inflight <= 3)

let suite =
  [
    Alcotest.test_case "Table 5 partition sizes" `Quick
      test_state_partition_sizes;
    Alcotest.test_case "seq/pos mapping" `Quick test_seq_pos_mapping;
    Alcotest.test_case "rx in-order data" `Quick test_rx_in_order_data;
    Alcotest.test_case "rx pure ack frees tx" `Quick
      test_rx_pure_ack_frees_tx;
    Alcotest.test_case "rx triple dupack fast retransmit" `Quick
      test_rx_dupacks_trigger_fast_retx;
    Alcotest.test_case "rx out-of-order dup ack" `Quick
      test_rx_ooo_generates_dup_ack;
    Alcotest.test_case "rx FIN in order" `Quick test_rx_fin_in_order;
    Alcotest.test_case "rx FIN out of order" `Quick
      test_rx_fin_out_of_order_ignored;
    Alcotest.test_case "rx ECN echo until CWR" `Quick test_rx_ecn_echo;
    Alcotest.test_case "rx ECE counts ecn bytes" `Quick
      test_rx_ece_on_ack_counts_ecn_bytes;
    Alcotest.test_case "rx RTT from timestamps" `Quick
      test_rx_rtt_from_timestamp;
    Alcotest.test_case "rx bogus ack ignored" `Quick
      test_rx_bogus_ack_ignored;
    Alcotest.test_case "rx window update wakes sender" `Quick
      test_rx_window_update_wakes;
    Alcotest.test_case "tx segments the stream" `Quick
      test_tx_segments_stream;
    Alcotest.test_case "tx respects remote window" `Quick
      test_tx_respects_remote_window;
    Alcotest.test_case "tx FIN piggyback" `Quick test_tx_fin_piggyback;
    Alcotest.test_case "tx FIN-only segment" `Quick test_tx_fin_only_segment;
    Alcotest.test_case "tx CWR set once" `Quick test_tx_cwr_set_once;
    Alcotest.test_case "hc tx_avail" `Quick test_hc_tx_avail;
    Alcotest.test_case "hc rx credit window update" `Quick
      test_hc_rx_credit_window_update;
    Alcotest.test_case "hc retransmit reset" `Quick test_hc_retransmit_reset;
    Alcotest.test_case "sequencer reorders" `Quick test_sequencer_reorders;
    Alcotest.test_case "sequencer skip" `Quick test_sequencer_skip;
    Alcotest.test_case "sequencer duplicate rejection" `Quick
      test_sequencer_rejects_duplicates;
    Alcotest.test_case "sequencer: a fresh sequencer holds no ring" `Quick
      test_sequencer_fresh_holds_no_ring;
    QCheck_alcotest.to_alcotest prop_sequencer_any_permutation;
    Alcotest.test_case "sequencer ring wraps and grows" `Quick
      test_sequencer_ring_wraps_and_grows;
    Alcotest.test_case "scheduler round robin" `Quick
      test_scheduler_round_robin;
    Alcotest.test_case "scheduler dispatch allocation" `Quick
      test_scheduler_dispatch_allocation;
    Alcotest.test_case "scheduler pacing via time wheel" `Quick
      test_scheduler_pacing;
    Alcotest.test_case "scheduler uncongested bypass" `Quick
      test_scheduler_uncongested_bypass;
    Alcotest.test_case "scheduler idles empty flows" `Quick
      test_scheduler_idle_flow_stops;
    Alcotest.test_case "scheduler credit gating" `Quick
      test_scheduler_credit_gating;
  ]

(* --- Delayed ACKs (paper §5.2 future-work feature) ------------------- *)

let dcfg = { cfg with Flextoe.Config.delayed_acks = true }

let test_delayed_ack_every_second_segment () =
  let c = mk_conn () in
  let seg1 =
    P.rx dcfg ~now:0 c
      (summary ~seq:9001 ~payload:(Bytes.make 100 'a') ())
      ~alloc_gseq
  in
  check_bool "first segment unacked" true (seg1.M.v_ack = None);
  check_int "pending counter" 1 c.C.proto.C.delack_segs;
  let seg2 =
    P.rx dcfg ~now:0 c
      (summary ~seq:9101 ~payload:(Bytes.make 100 'a') ())
      ~alloc_gseq
  in
  check_bool "second segment acked" true (seg2.M.v_ack <> None);
  check_int "counter reset" 0 c.C.proto.C.delack_segs

let test_delayed_ack_immediate_on_ooo () =
  let c = mk_conn () in
  (* Out-of-order segments must produce immediate duplicate ACKs or
     fast retransmit breaks. *)
  let v =
    P.rx dcfg ~now:0 c
      (summary ~seq:9501 ~payload:(Bytes.make 100 'a') ())
      ~alloc_gseq
  in
  check_bool "ooo acked immediately" true (v.M.v_ack <> None)

let test_delayed_ack_immediate_on_fin () =
  let c = mk_conn () in
  let v =
    P.rx dcfg ~now:0 c
      (summary ~seq:9001 ~payload:(Bytes.make 10 'a') ~fin:true ())
      ~alloc_gseq
  in
  check_bool "fin acked immediately" true (v.M.v_ack <> None)

let test_delayed_ack_piggyback_clears () =
  let c = mk_conn () in
  c.C.proto.C.tx_tail_pos <- 100;
  ignore
    (P.rx dcfg ~now:0 c
       (summary ~seq:9001 ~payload:(Bytes.make 100 'a') ())
       ~alloc_gseq);
  check_int "one pending" 1 c.C.proto.C.delack_segs;
  ignore (P.tx dcfg ~now:0 c ~alloc_gseq);
  check_int "data segment piggybacks the ack" 0 c.C.proto.C.delack_segs

let test_delayed_ack_flush_op () =
  let c = mk_conn () in
  ignore
    (P.rx dcfg ~now:0 c
       (summary ~seq:9001 ~payload:(Bytes.make 100 'a') ())
       ~alloc_gseq);
  let r = P.hc dcfg ~now:0 c M.Ack_flush ~alloc_gseq in
  check_bool "flush emits the ack" true (r.P.hc_window_update <> None);
  check_int "pending cleared" 0 c.C.proto.C.delack_segs;
  let r2 = P.hc dcfg ~now:0 c M.Ack_flush ~alloc_gseq in
  check_bool "idempotent" true (r2.P.hc_window_update = None)

let delayed_ack_suite =
  [
    Alcotest.test_case "delayed ack every 2nd segment" `Quick
      test_delayed_ack_every_second_segment;
    Alcotest.test_case "delayed ack: ooo immediate" `Quick
      test_delayed_ack_immediate_on_ooo;
    Alcotest.test_case "delayed ack: fin immediate" `Quick
      test_delayed_ack_immediate_on_fin;
    Alcotest.test_case "delayed ack: piggyback clears" `Quick
      test_delayed_ack_piggyback_clears;
    Alcotest.test_case "delayed ack: control-plane flush" `Quick
      test_delayed_ack_flush_op;
  ]

(* --- Sequence-number wraparound -------------------------------------- *)

let test_wraparound_transfer () =
  (* ISNs just below 2^32: both streams wrap within the first few
     kilobytes. All position arithmetic must survive it. *)
  let flow =
    Tcp.Flow.v ~local_ip:1 ~local_port:80 ~remote_ip:2 ~remote_port:4000
  in
  let c =
    C.create ~idx:0 ~flow ~peer_mac:2 ~flow_group:0
      ~tx_isn:(Tcp.Seq32.of_int 0xFFFFFC00)
      ~rx_isn:(Tcp.Seq32.of_int 0xFFFFFE00)
      ~opaque:0 ~ctx_id:0 ~rx_buf_bytes:65536 ~tx_buf_bytes:65536 ()
  in
  (* Transmit 8 KB (the sequence space wraps after 1 KB). *)
  ignore (P.hc cfg ~now:0 c (M.Tx_avail 8192) ~alloc_gseq);
  let descs = ref [] in
  let rec drain () =
    match P.tx cfg ~now:0 c ~alloc_gseq with
    | Some d ->
        descs := d :: !descs;
        if d.M.t_more then drain ()
    | None -> ()
  in
  drain ();
  let descs = List.rev !descs in
  check_int "whole stream segmented" 8192
    (List.fold_left (fun a d -> a + d.M.t_len) 0 descs);
  (* Positions are continuous even though sequence numbers wrapped. *)
  ignore
    (List.fold_left
       (fun expect d ->
         check_int "contiguous positions" expect d.M.t_pos;
         expect + d.M.t_len)
       0 descs);
  (* Ack everything across the wrap. *)
  let v =
    P.rx cfg ~now:0 c
      (summary ~ack_seq:(C.tx_seq_of_pos c 8192) ())
      ~alloc_gseq
  in
  check_int "all freed across wrap" 8192 v.M.v_tx_freed;
  (* Receive 4 KB across the RX wrap, out of order then in order. *)
  let seg2 = C.rx_seq_of_pos c 1448 in
  let v1 =
    P.rx cfg ~now:0 c
      (summary ~seq:seg2 ~payload:(Bytes.make 1448 'b') ())
      ~alloc_gseq
  in
  check_int "ooo across wrap placed at right offset" 1448
    (match v1.M.v_place with Some (pos, _) -> pos | None -> -1);
  let v2 =
    P.rx cfg ~now:0 c
      (summary ~seq:(C.rx_seq_of_pos c 0) ~payload:(Bytes.make 1448 'a') ())
      ~alloc_gseq
  in
  check_int "hole fill advances past the wrap" 2896 v2.M.v_rx_advance

let wraparound_suite =
  [ Alcotest.test_case "sequence wraparound end to end" `Quick
      test_wraparound_transfer ]
