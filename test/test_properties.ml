(* Cross-cutting property tests: protocol-state invariants under
   random event sequences, eBPF ALU semantics against an Int64
   reference, and end-to-end simulation determinism. *)

module C = Flextoe.Conn_state
module P = Flextoe.Protocol
module M = Flextoe.Meta
module I = Flextoe.Bpf_insn
module E = Flextoe.Ebpf

let check_bool = Alcotest.(check bool)

(* --- Protocol invariants -------------------------------------------- *)

let cfg = Flextoe.Config.default

let mk_conn () =
  let flow =
    Tcp.Flow.v ~local_ip:1 ~local_port:80 ~remote_ip:2 ~remote_port:4000
  in
  C.create ~idx:0 ~flow ~peer_mac:2 ~flow_group:0 ~tx_isn:77 ~rx_isn:991
    ~opaque:0 ~ctx_id:0 ~rx_buf_bytes:65536 ~tx_buf_bytes:65536 ()

let invariants (c : C.t) =
  let p = c.C.proto in
  p.C.tx_acked_pos <= p.C.tx_next_pos
  && p.C.tx_next_pos <= p.C.tx_max_pos
  && p.C.tx_next_pos <= p.C.tx_tail_pos
  && p.C.rx_avail >= 0
  && p.C.rx_avail <= 65536
  && p.C.delack_segs >= 0

(* A random interleaving of application writes, transmissions,
   (possibly bogus) acknowledgments and (possibly out-of-order,
   duplicated) data arrivals must never break the positional
   invariants of the protocol partition. *)
let prop_protocol_invariants =
  QCheck.Test.make ~name:"protocol: invariants hold under random events"
    ~count:200
    QCheck.(pair (int_bound 10_000) (int_range 20 120))
    (fun (seed, steps) ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 1)) in
      let c = mk_conn () in
      let gseq = ref 0 in
      let alloc_gseq () = incr gseq; !gseq in
      let ok = ref true in
      for step = 1 to steps do
        let now = Sim.Time.us step in
        (match Sim.Rng.int rng 6 with
        | 0 ->
            (* App writes. *)
            ignore
              (P.hc ~now c (M.Tx_avail (Sim.Rng.int rng 5000 + 1))
                 ~alloc_gseq)
        | 1 ->
            (* Transmit whatever is allowed. *)
            ignore (P.tx cfg ~now c ~alloc_gseq)
        | 2 ->
            (* An ACK at a random position (possibly stale/bogus). *)
            let pos = Sim.Rng.int rng (c.C.proto.C.tx_max_pos + 2000 + 1) in
            ignore
              (P.rx cfg ~now c
                 {
                   M.rx_gseq = 0; conn = 0;
                   seq = Tcp.Seq32.add 991 1;
                   ack_seq = C.tx_seq_of_pos c pos;
                   has_ack = true;
                   wnd = Sim.Rng.int rng 512;
                   payload = Bytes.empty;
                   fin = false; psh = false; ece = Sim.Rng.bool rng 0.2;
                   cwr = false; ecn_ce = false; ts = None; arrival = now;
                 }
                 ~alloc_gseq)
        | 3 | 4 ->
            (* Data at a random nearby sequence (dups, overlaps, ooo). *)
            let off = Sim.Rng.int rng 8000 - 2000 in
            let seq = Tcp.Seq32.add (C.rx_seq_of_pos c 0)
                (max 0 (C.rx_next_pos c + off)) in
            let len = 1 + Sim.Rng.int rng 1448 in
            ignore
              (P.rx cfg ~now c
                 {
                   M.rx_gseq = 0; conn = 0; seq;
                   ack_seq = C.tx_seq_of_pos c c.C.proto.C.tx_acked_pos;
                   has_ack = true; wnd = 512;
                   payload = Bytes.make len 'd';
                   fin = Sim.Rng.bool rng 0.02;
                   psh = false; ece = false; cwr = false;
                   ecn_ce = Sim.Rng.bool rng 0.1; ts = None; arrival = now;
                 }
                 ~alloc_gseq)
        | _ ->
            (* Control-plane retransmit / credits. *)
            let op =
              if Sim.Rng.bool rng 0.5 then M.Retransmit
              else M.Rx_credit (Sim.Rng.int rng 4096)
            in
            ignore (P.hc ~now c op ~alloc_gseq));
        if not (invariants c) then ok := false
      done;
      !ok)

(* --- Reassembly under reorder / duplication / overlap ------------------- *)

(* Oracle-checked reassembly: cut a known byte stream into segments,
   deliver them shuffled with duplicates and overlapping extras, and
   redeliver (the retransmission analogue) until the window closes.
   Whatever the reassembler accepts is placed exactly as a receiver
   would place it; the reconstruction must equal the original stream
   byte for byte, and every placement directive must be in bounds and
   consistent with the segment it came from. *)

type reasm_step =
  | R_in_order of int * int * int  (* trim, len, advance *)
  | R_ooo of int * int * int  (* trim, off, len *)
  | R_dropped

let single_step isn =
  let t = Tcp.Reassembly.create ~next:isn in
  fun ~seq ~len ~window ->
    match Tcp.Reassembly.process t ~seq ~len ~window with
    | Tcp.Reassembly.Accept { trim; len; advance; _ } ->
        R_in_order (trim, len, advance)
    | Tcp.Reassembly.Ooo_accept { trim; off; len } -> R_ooo (trim, off, len)
    | Tcp.Reassembly.Duplicate | Tcp.Reassembly.Drop_merge_failed
    | Tcp.Reassembly.Drop_out_of_window ->
        R_dropped

let multi_step isn =
  let t = Tcp.Reassembly_multi.create ~next:isn in
  fun ~seq ~len ~window ->
    match Tcp.Reassembly_multi.process t ~seq ~len ~window with
    | Tcp.Reassembly_multi.Accept { trim; len; advance } ->
        R_in_order (trim, len, advance)
    | Tcp.Reassembly_multi.Ooo_accept { trim; off; len } ->
        R_ooo (trim, off, len)
    | Tcp.Reassembly_multi.Duplicate | Tcp.Reassembly_multi.Drop_out_of_window
      ->
        R_dropped

let reassembly_oracle ~mk_step (seed, n) =
  let rng = Sim.Rng.create (Int64.of_int (seed + 13)) in
  let stream = Bytes.init n (fun i -> Char.chr ((i * 31 + (i / 256)) land 0xFF)) in
  let isn = Tcp.Seq32.of_int 123_456 in
  let step = mk_step isn in
  (* Segments partitioning the stream... *)
  let segs = ref [] in
  let pos = ref 0 in
  while !pos < n do
    let len = min (n - !pos) (40 + Sim.Rng.int rng 500) in
    segs := (!pos, len) :: !segs;
    pos := !pos + len
  done;
  (* ...plus duplicates and arbitrary overlapping extras. *)
  let dups =
    List.filter (fun _ -> Sim.Rng.bool rng 0.3) !segs
  in
  let extras =
    List.init (Sim.Rng.int rng 8) (fun _ ->
        let s = Sim.Rng.int rng n in
        (s, min (n - s) (1 + Sim.Rng.int rng 500)))
  in
  let arr = Array.of_list (!segs @ dups @ extras) in
  let out = Bytes.make n '\x00' in
  let base = ref 0 in
  let ok = ref true in
  let max_rounds = Array.length arr + 8 in
  let rounds = ref 0 in
  while !base < n && !rounds < max_rounds do
    incr rounds;
    Sim.Rng.shuffle rng arr;
    Array.iter
      (fun (s, l) ->
        if !base < n then begin
          let window = n - !base in
          match step ~seq:(Tcp.Seq32.add isn s) ~len:l ~window with
          | R_in_order (trim, len, advance) ->
              if s + trim <> !base then ok := false;
              if trim < 0 || len < 0 || trim + len > l then ok := false;
              if advance < len || !base + advance > n then ok := false;
              if !ok then Bytes.blit stream (s + trim) out !base len;
              base := !base + advance
          | R_ooo (trim, off, len) ->
              if off <= 0 || len <= 0 then ok := false
              else if !base + off <> s + trim then ok := false
              else if trim + len > l || !base + off + len > n then
                ok := false
              else Bytes.blit stream (s + trim) out (!base + off) len
          | R_dropped -> ()
        end)
      arr
  done;
  !ok && !base = n && Bytes.equal out stream

let prop_reassembly_single_oracle =
  QCheck.Test.make
    ~name:
      "reassembly (single-interval): reorder/dup/overlap reconstructs the \
       stream"
    ~count:150
    QCheck.(pair (int_bound 10_000) (int_range 200 4_000))
    (reassembly_oracle ~mk_step:single_step)

let prop_reassembly_multi_oracle =
  QCheck.Test.make
    ~name:
      "reassembly (multi-interval): reorder/dup/overlap reconstructs the \
       stream"
    ~count:150
    QCheck.(pair (int_bound 10_000) (int_range 200 4_000))
    (reassembly_oracle ~mk_step:multi_step)

(* --- eBPF ALU vs Int64 reference --------------------------------------- *)

let reference_alu64 op a b =
  let open Int64 in
  match op with
  | I.Add -> add a b
  | I.Sub -> sub a b
  | I.Mul -> mul a b
  | I.Div -> if b = 0L then 0L else unsigned_div a b
  | I.Or -> logor a b
  | I.And -> logand a b
  | I.Lsh -> shift_left a (to_int (logand b 63L))
  | I.Rsh -> shift_right_logical a (to_int (logand b 63L))
  | I.Neg -> neg a
  | I.Mod -> if b = 0L then a else unsigned_rem a b
  | I.Xor -> logxor a b
  | I.Mov -> b
  | I.Arsh -> shift_right a (to_int (logand b 63L))

let prop_vm_alu64_matches_reference =
  let op_gen =
    QCheck.Gen.oneofl
      [ I.Add; I.Sub; I.Mul; I.Div; I.Or; I.And; I.Lsh; I.Rsh; I.Neg;
        I.Mod; I.Xor; I.Mov; I.Arsh ]
  in
  QCheck.Test.make ~name:"ebpf: alu64 agrees with the Int64 reference"
    ~count:500
    QCheck.(make Gen.(triple op_gen ui64 ui64))
    (fun (op, a, b) ->
      let prog =
        [|
          I.Ld_imm64 (1, a);
          I.Ld_imm64 (2, b);
          I.Alu64 (op, 1, I.Reg 2);
          (* Store the full 64-bit result to the stack and read back
             its halves, since exit truncates r0 to 32 bits. *)
          I.Stx (I.W64, 10, -8, 1);
          I.Ldx (I.W32, 0, 10, -8);
          I.Exit;
        |]
      in
      let lo32 =
        match E.load prog with
        | Ok p ->
            (E.run p ~maps:[||] ~now_ns:0L ~packet:(Bytes.make 64 ' ')).E.ret
        | Error v -> failwith (Flextoe.Verifier.violation_to_string v)
      in
      let expected =
        Int64.to_int (Int64.logand (reference_alu64 op a b) 0xFFFFFFFFL)
      in
      lo32 = expected)

(* The VM and the verifier's constant folding share one copy of the
   ALU and jump semantics ([Bpf_insn.alu32], [Bpf_insn.jump_taken]);
   these references are written differently (on Int32, and with the
   unsigned order taken by flipping the sign bit) so that each checks
   that copy rather than restating it. Every program also goes
   through the verifier, whose folded constants must agree. *)

let run_ret prog =
  match E.load prog with
  | Ok p -> (E.run p ~maps:[||] ~now_ns:0L ~packet:(Bytes.make 64 ' ')).E.ret
  | Error v -> failwith (Flextoe.Verifier.violation_to_string v)

(* Abstract in-states the verifier reached instruction [pc] with. *)
let verified_states prog pc =
  match Flextoe.Verifier.verify prog with
  | Ok a -> a.Flextoe.Verifier.trace.(pc)
  | Error v -> failwith (Flextoe.Verifier.violation_to_string v)

let operand_pair_gen =
  let open QCheck.Gen in
  let edge =
    oneofl
      [ 0L; 1L; -1L; Int64.min_int; Int64.max_int; 0x7FFFFFFFL;
        0x80000000L; 0xFFFFFFFFL; 0x100000000L ]
  in
  let operand = frequency [ (3, ui64); (1, edge) ] in
  frequency
    [ (3, pair operand operand); (1, map (fun a -> (a, a)) operand) ]

let reference_alu32 op a b =
  let a = Int64.to_int32 a and b = Int64.to_int32 b in
  let sh = Int32.to_int (Int32.logand b 31l) in
  let r =
    let open Int32 in
    match op with
    | I.Add -> add a b
    | I.Sub -> sub a b
    | I.Mul -> mul a b
    | I.Div -> if b = 0l then 0l else unsigned_div a b
    | I.Or -> logor a b
    | I.And -> logand a b
    | I.Lsh -> shift_left a sh
    | I.Rsh -> shift_right_logical a sh
    | I.Neg -> neg a
    | I.Mod -> if b = 0l then a else unsigned_rem a b
    | I.Xor -> logxor a b
    | I.Mov -> b
    | I.Arsh -> shift_right a sh
  in
  (* zero-extended to 64 bits *)
  Int64.logand (Int64.of_int32 r) 0xFFFFFFFFL

let prop_vm_alu32_matches_reference =
  let op_gen =
    QCheck.Gen.oneofl
      [ I.Add; I.Sub; I.Mul; I.Div; I.Or; I.And; I.Lsh; I.Rsh; I.Neg;
        I.Mod; I.Xor; I.Mov; I.Arsh ]
  in
  QCheck.Test.make ~name:"ebpf: alu32 agrees with the Int32 reference"
    ~count:500
    QCheck.(make Gen.(pair op_gen operand_pair_gen))
    (fun (op, (a, b)) ->
      (* [shift] 32 exposes the upper half, which must be zero. *)
      let prog shift =
        [|
          I.Ld_imm64 (1, a);
          I.Ld_imm64 (2, b);
          I.Alu32 (op, 1, I.Reg 2);
          I.Alu64 (I.Rsh, 1, I.Imm shift);
          I.Alu64 (I.Mov, 0, I.Reg 1);
          I.Exit;
        |]
      in
      let expected = reference_alu32 op a b in
      let folded =
        List.map
          (fun st -> st.Flextoe.Verifier.regs.(0))
          (verified_states (prog 0) 5)
      in
      run_ret (prog 0) = Int64.to_int expected
      && run_ret (prog 32) = 0
      && folded = [ Flextoe.Verifier.Scalar { lo = expected; hi = expected } ])

let reference_jump cond a b =
  let flip x = Int64.logxor x Int64.min_int in
  let u = compare (flip a) (flip b) and s = compare a b in
  match cond with
  | I.Jeq -> s = 0
  | I.Jne -> s <> 0
  | I.Jgt -> u > 0
  | I.Jge -> u >= 0
  | I.Jlt -> u < 0
  | I.Jle -> u <= 0
  | I.Jset -> Int64.logand a b <> 0L
  | I.Jsgt -> s > 0
  | I.Jsge -> s >= 0
  | I.Jslt -> s < 0
  | I.Jsle -> s <= 0

let prop_jump_conditions_match_reference =
  let cond_gen =
    QCheck.Gen.oneofl
      [ I.Jeq; I.Jne; I.Jgt; I.Jge; I.Jlt; I.Jle; I.Jset; I.Jsgt; I.Jsge;
        I.Jslt; I.Jsle ]
  in
  QCheck.Test.make
    ~name:"ebpf: every jump condition agrees with the reference order"
    ~count:500
    QCheck.(make Gen.(pair cond_gen operand_pair_gen))
    (fun (cond, (a, b)) ->
      let prog =
        [|
          I.Ld_imm64 (1, a);
          I.Ld_imm64 (2, b);
          I.Alu64 (I.Mov, 0, I.Imm 1);
          I.Jmp (cond, 1, I.Reg 2, 1);
          I.Alu64 (I.Mov, 0, I.Imm 0);
          I.Exit;
        |]
      in
      let taken = reference_jump cond a b in
      (* The verifier follows only the edge it folds the branch to, so
         it reaches the fallthrough (pc 4) iff the jump is not taken. *)
      run_ret prog = Bool.to_int taken
      && (verified_states prog 4 = []) = taken)

(* --- Determinism ----------------------------------------------------------- *)

let run_sim seed =
  let engine = Sim.Engine.create ~seed () in
  let fabric = Netsim.Fabric.create engine () in
  Netsim.Fabric.set_loss fabric 0.005;
  let a = Flextoe.create_node engine ~fabric ~ip:0x0A000001 () in
  let b = Flextoe.create_node engine ~fabric ~ip:0x0A000002 () in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b)
       ~engine:engine ~server_ip:0x0A000001 ~server_port:7 ~conns:8
       ~pipeline:4 ~req_bytes:512 ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 20) engine;
  let st = Flextoe.Datapath.stats (Flextoe.datapath a) in
  ( Host.Rpc.Stats.ops stats,
    st.Flextoe.Datapath.rx_segments,
    st.Flextoe.Datapath.tx_acks,
    Sim.Engine.events_processed engine )

let test_simulation_deterministic () =
  let r1 = run_sim 77L and r2 = run_sim 77L in
  check_bool "identical results for identical seeds" true (r1 = r2);
  let r3 = run_sim 78L in
  check_bool "different seed perturbs the run" true (r1 <> r3)

(* --- Ordering structures (FlexSan's happens-before sources) --------- *)

(* The sequencer must release items in sequence order for ANY
   interleaving of submits and skips — the property FlexSan leans on
   when it treats sequencer release as an ordering edge. The generator
   draws a random permutation of [0..n) and a random skip set. *)
let prop_sequencer_releases_in_order =
  QCheck.Test.make ~name:"sequencer: in-order release for any interleaving"
    ~count:300
    QCheck.(pair (int_range 1 60) (int_range 0 1_000_000))
    (fun (n, salt) ->
      let rng = Random.State.make [| n; salt |] in
      let released = ref [] in
      let s =
        Flextoe.Sequencer.create ~name:"prop" ~release:(fun v ->
            released := v :: !released)
      in
      let seqs = Array.init n (fun _ -> Flextoe.Sequencer.next_seq s) in
      (* Shuffle the submission order. *)
      for i = n - 1 downto 1 do
        let j = Random.State.int rng (i + 1) in
        let t = seqs.(i) in
        seqs.(i) <- seqs.(j);
        seqs.(j) <- t
      done;
      let skipped = Array.map (fun _ -> Random.State.bool rng) seqs in
      Array.iteri
        (fun i seq ->
          if skipped.(i) then Flextoe.Sequencer.skip s ~seq
          else Flextoe.Sequencer.submit s ~seq seq)
        seqs;
      let out = List.rev !released in
      (* Everything submitted (not skipped) came out, in ascending
         sequence order. *)
      let expect =
        List.filter_map
          (fun i -> if skipped.(i) then None else Some seqs.(i))
          (List.init n Fun.id)
        |> List.sort compare
      in
      Flextoe.Sequencer.pending s = 0 && out = List.sort compare out
      && List.sort compare out = expect)

(* A bounded ring never reorders, never drops silently, and never
   exceeds capacity — including across many wraparounds of its
   internal storage. *)
let prop_ring_fifo_wraparound =
  QCheck.Test.make ~name:"ring: FIFO, bounded, no reorder across wraparound"
    ~count:200
    QCheck.(triple (int_range 1 8) (int_range 50 400) (int_range 0 1_000_000))
    (fun (cap, ops, salt) ->
      let rng = Random.State.make [| cap; ops; salt |] in
      let r = Nfp.Ring.create ~capacity:cap ~name:"prop" () in
      let next = ref 0 in
      let expected = ref 0 in
      let ok = ref true in
      for _ = 1 to ops do
        if Random.State.bool rng then begin
          let accepted = Nfp.Ring.push r !next in
          let was_full = Nfp.Ring.length r > cap in
          if was_full then ok := false;
          (* push must succeed iff the ring had room. *)
          if accepted then incr next
          else if Nfp.Ring.length r < cap then ok := false
        end
        else
          match Nfp.Ring.pop r with
          | Some v ->
              if v <> !expected then ok := false;
              incr expected
          | None -> if Nfp.Ring.length r <> 0 then ok := false
      done;
      (* Drain: the tail must come out in order too. *)
      let rec drain () =
        match Nfp.Ring.pop r with
        | Some v ->
            if v <> !expected then ok := false;
            incr expected;
            drain ()
        | None -> ()
      in
      drain ();
      !ok && !expected = !next && Nfp.Ring.length r = 0)

(* §3.2's serialization claim, observed end to end: on a healthy
   pipelined run with the sanitizer recording spans, no two
   protocol-stage critical sections for the same connection ever
   overlap in time — for any workload interleaving the simulator
   produces from the seed. *)
let test_protocol_spans_never_overlap () =
  let engine = Sim.Engine.create ~seed:11L () in
  let fabric = Netsim.Fabric.create engine () in
  let config = { Flextoe.Config.default with Flextoe.Config.san = true } in
  let a = Flextoe.create_node engine ~fabric ~config ~ip:0x0A000001 () in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:0x0A000002 () in
  List.iter
    (fun n ->
      match Flextoe.Datapath.san (Flextoe.datapath n) with
      | Some s -> Flextoe.San.set_record_spans s true
      | None -> Alcotest.fail "sanitizer not enabled")
    [ a; b ];
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:0x0A000001 ~server_port:7 ~conns:6 ~pipeline:6
       ~req_bytes:512 ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 25) engine;
  check_bool "workload ran" true (Host.Rpc.Stats.ops stats > 100);
  List.iter
    (fun n ->
      let s = Option.get (Flextoe.Datapath.san (Flextoe.datapath n)) in
      let spans = Flextoe.San.closed_spans s in
      check_bool "protocol executions observed" true
        (List.length spans > 1000);
      (* Live check: the sanitizer counts same-flow same-stage nesting
         as it happens (catches overlaps even for spans still open at
         the horizon). *)
      Alcotest.(check int)
        "no same-flow protocol spans overlap (live)" 0
        (Flextoe.San.span_overlaps s);
      (* Offline check over the recorded intervals: sort per flow by
         start time and require end(i) <= begin(i+1). *)
      let by_flow = Hashtbl.create 64 in
      List.iter
        (fun (flow, stage, b, e) ->
          if stage = "protocol" then
            Hashtbl.replace by_flow flow
              ((b, e)
              :: (match Hashtbl.find_opt by_flow flow with
                 | Some l -> l
                 | None -> [])))
        spans;
      Hashtbl.iter
        (fun flow ivals ->
          let sorted =
            List.sort (fun ((b1 : Sim.Time.t), _) (b2, _) -> compare b1 b2)
              ivals
          in
          let rec scan = function
            | (_, e1) :: ((b2, _) :: _ as rest) ->
                if e1 > b2 then
                  Alcotest.failf "flow %d: protocol spans overlap" flow;
                scan rest
            | _ -> ()
          in
          scan sorted)
        by_flow)
    [ a; b ]

(* --- GRO/TSO coalescing laws (PR5 batching) --------------------------- *)

module Co = Flextoe.Coalesce

let mk_summary ?(gseq = 0) ~seq payload =
  {
    M.rx_gseq = gseq;
    conn = 0;
    seq;
    ack_seq = Tcp.Seq32.of_int 1;
    has_ack = true;
    wnd = 1024;
    payload;
    fin = false;
    psh = false;
    ece = false;
    cwr = false;
    ecn_ce = false;
    ts = None;
    arrival = 0;
  }

(* [split_payload mss (merge segs).payload] must reproduce exactly the
   concatenated payload bytes of the original adjacent segments, with
   MSS-respecting chunking and the merged descriptor keeping the
   head's sequence identity. *)
let prop_split_merge_id =
  QCheck.Test.make
    ~name:"coalesce: split∘merge is the identity on payload bytes" ~count:300
    QCheck.(triple (int_bound 10_000) (int_range 1 16) (int_range 64 1460))
    (fun (seed, nsegs, mss) ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 7)) in
      let seq0 = Tcp.Seq32.of_int (Sim.Rng.int rng 0x7FFF_FFFF) in
      let off = ref 0 in
      let segs =
        List.init nsegs (fun i ->
            let len = 1 + Sim.Rng.int rng mss in
            let payload =
              Bytes.init len (fun j -> Char.chr ((i + (j * 17)) land 0xFF))
            in
            let s =
              mk_summary ~gseq:i ~seq:(Tcp.Seq32.add seq0 !off) payload
            in
            off := !off + len;
            s)
      in
      let chained =
        let rec go next = function
          | [] -> true
          | s :: rest -> Co.chainable ~next s && go (Co.chain_next s) rest
        in
        match segs with [] -> true | s :: rest -> go (Co.chain_next s) rest
      in
      let m = Co.merge segs in
      let orig =
        Bytes.concat Bytes.empty (List.map (fun s -> s.M.payload) segs)
      in
      let chunks = Co.split_payload ~mss m.M.payload in
      chained
      && Bytes.equal m.M.payload orig
      && Bytes.equal (Bytes.concat Bytes.empty chunks) orig
      && List.length chunks = Co.split_count ~mss (Bytes.length orig)
      && List.for_all
           (fun c -> Bytes.length c > 0 && Bytes.length c <= mss)
           chunks
      && Tcp.Seq32.diff m.M.seq seq0 = 0
      && Tcp.Seq32.diff (Co.chain_next m) m.M.seq = !off)

(* Coalescing windows and TSO splits whose sequence ranges straddle
   2^32: all positional laws are stated as [Seq32.diff]s, which must
   come out exact despite the wrap. *)
let prop_seq32_wrap_coalesce =
  QCheck.Test.make
    ~name:"coalesce: sequence arithmetic survives 2^32 wraparound"
    ~count:300
    QCheck.(triple (int_bound 10_000) (int_range 2 16) (int_range 64 1460))
    (fun (seed, nchunks, mss) ->
      let rng = Sim.Rng.create (Int64.of_int (seed + 11)) in
      let len = mss + 1 + Sim.Rng.int rng (((nchunks - 1) * mss) + 1) in
      (* Start so close to 2^32 that the run necessarily wraps. *)
      let back = 1 + Sim.Rng.int rng len in
      let seq0 = Tcp.Seq32.of_int ((0x1_0000_0000 - back) land 0xFFFF_FFFF) in
      let payload = Bytes.init len (fun j -> Char.chr (j land 0xFF)) in
      (* TSO: per-frame descriptors renumber across the wrap. *)
      let d =
        {
          M.t_conn = 0;
          t_gseq = 9;
          t_pos = 5_000;
          t_len = len;
          t_seq = seq0;
          t_ack = Tcp.Seq32.zero;
          t_wnd = 77;
          t_fin = true;
          t_cwr = true;
          t_ts_ecr = 0;
          t_more = false;
        }
      in
      let chunks = Co.split_desc ~mss d payload in
      let n = List.length chunks in
      let ok = ref (n = Co.split_count ~mss len && n >= 2) in
      List.iteri
        (fun i (dc, cp) ->
          let off = i * mss in
          if Tcp.Seq32.diff dc.M.t_seq seq0 <> off then ok := false;
          if dc.M.t_pos <> 5_000 + off then ok := false;
          if dc.M.t_len <> Bytes.length cp then ok := false;
          if dc.M.t_fin <> (i = n - 1) then ok := false;
          if dc.M.t_cwr <> (i = 0) then ok := false)
        chunks;
      (* GRO: a merged window crossing the wrap chains and renumbers. *)
      let s1 = mk_summary ~seq:seq0 (Bytes.sub payload 0 mss) in
      let s2 =
        mk_summary
          ~seq:(Tcp.Seq32.add seq0 mss)
          (Bytes.sub payload mss (len - mss))
      in
      let merged = Co.merge [ s1; s2 ] in
      !ok
      && Bytes.equal (Bytes.concat Bytes.empty (List.map snd chunks)) payload
      && Co.chainable ~next:(Co.chain_next s1) s2
      && Tcp.Seq32.diff (Co.chain_next merged) seq0 = len)

(* End-to-end GRO semantics: segments pushed through a real
   [Netsim.Faults] chain (loss, bounded reorder, duplication), with
   survivors coalesced into GRO windows of degree [b] before hitting
   the multi-interval reassembler — the stream must still reconstruct
   exactly, across a 2^32 sequence wrap. *)
let prop_reassembly_gro_faults =
  QCheck.Test.make
    ~name:"reassembly: GRO-merged inputs under faults reconstruct the stream"
    ~count:40
    QCheck.(triple (int_bound 10_000) (int_range 400 4_000) (int_range 2 8))
    (fun (seed, n, b) ->
      let engine = Sim.Engine.create ~seed:(Int64.of_int (seed + 3)) () in
      let faults =
        Netsim.Faults.create engine
          ~seed:(Int64.of_int (seed + 5))
          [
            Netsim.Faults.Uniform_loss 0.15;
            Netsim.Faults.Reorder
              { prob = 0.3; window = 8; max_hold = Sim.Time.us 200 };
            Netsim.Faults.Duplicate 0.1;
          ]
      in
      let hook = Netsim.Faults.hook faults in
      let rng = Sim.Rng.create (Int64.of_int (seed + 13)) in
      let stream =
        Bytes.init n (fun i -> Char.chr ((i * 131 + 7) land 0xFF))
      in
      (* ISN 256 bytes below 2^32: the stream wraps almost immediately. *)
      let isn = Tcp.Seq32.of_int 0xFFFF_FF00 in
      let segs = ref [] in
      let pos = ref 0 in
      while !pos < n do
        let len = min (n - !pos) (40 + Sim.Rng.int rng 500) in
        segs := (!pos, len) :: !segs;
        pos := !pos + len
      done;
      let frames =
        List.rev_map
          (fun (p, l) ->
            let seg =
              Tcp.Segment.make
                ~payload:(Bytes.sub stream p l)
                ~src_ip:1 ~dst_ip:2 ~src_port:10 ~dst_port:20
                ~seq:(Tcp.Seq32.add isn p) ~ack_seq:Tcp.Seq32.zero ()
            in
            Tcp.Segment.make_frame ~src_mac:1 ~dst_mac:2 seg)
          !segs
      in
      let received = Queue.create () in
      let t = Tcp.Reassembly_multi.create ~next:isn in
      let out = Bytes.make n '\x00' in
      let base = ref 0 in
      let ok = ref true in
      let process pos payload =
        let plen = Bytes.length payload in
        if !base < n && plen > 0 && !ok then begin
          let window = n - !base in
          match
            Tcp.Reassembly_multi.process t
              ~seq:(Tcp.Seq32.add isn pos) ~len:plen ~window
          with
          | Tcp.Reassembly_multi.Accept { trim; len; advance } ->
              if pos + trim <> !base then ok := false
              else if trim < 0 || len < 0 || trim + len > plen then
                ok := false
              else if advance < len || !base + advance > n then ok := false
              else begin
                Bytes.blit payload trim out !base len;
                base := !base + advance
              end
          | Tcp.Reassembly_multi.Ooo_accept { trim; off; len } ->
              if off <= 0 || len <= 0 then ok := false
              else if !base + off <> pos + trim then ok := false
              else if trim + len > plen || !base + off + len > n then
                ok := false
              else Bytes.blit payload trim out (!base + off) len
          | Tcp.Reassembly_multi.Duplicate
          | Tcp.Reassembly_multi.Drop_out_of_window ->
              ()
        end
      in
      (* GRO window over arrivals: adjacent in-sequence survivors merge
         (degree [b]); anything else flushes the window first. *)
      let win_pos = ref 0 in
      let win = Buffer.create 2048 in
      let win_count = ref 0 in
      let flush_win () =
        if !win_count > 0 then begin
          process !win_pos (Buffer.to_bytes win);
          Buffer.clear win;
          win_count := 0
        end
      in
      let on_seg pos payload =
        if
          !win_count > 0
          && !win_pos + Buffer.length win = pos
          && !win_count < b
        then begin
          Buffer.add_bytes win payload;
          incr win_count
        end
        else begin
          flush_win ();
          win_pos := pos;
          Buffer.add_bytes win payload;
          win_count := 1
        end
      in
      (* Retransmission model: replay every segment each round; faults
         thin and reorder each pass independently. *)
      let rounds = ref 0 in
      while !base < n && !rounds < 60 && !ok do
        incr rounds;
        List.iter (fun fr -> hook fr (fun f -> Queue.push f received)) frames;
        (* Let the reorder stage's hold timers expire. *)
        Sim.Engine.run
          ~until:(Sim.Engine.now engine + Sim.Time.ms 1)
          engine;
        Queue.iter
          (fun (fr : Tcp.Segment.frame) ->
            let sg = fr.Tcp.Segment.seg in
            on_seg
              (Tcp.Seq32.diff sg.Tcp.Segment.seq isn)
              sg.Tcp.Segment.payload)
          received;
        Queue.clear received;
        flush_win ()
      done;
      !ok && !base = n && Bytes.equal out stream)

(* The decoder-robustness corpus under fresh seeds each run: whatever
   the mutation, [Wire.decode] and the checksum helpers classify
   without raising. *)
let prop_wire_fuzz_never_raises =
  QCheck.Test.make ~name:"wire: fuzz corpus never raises in the decoder"
    ~count:20
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let s = Tcp.Fuzz.run ~seed:(Int64.of_int seed) ~cases:200 () in
      List.iter print_endline s.Tcp.Fuzz.failures;
      Tcp.Fuzz.ok s)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_protocol_invariants;
    QCheck_alcotest.to_alcotest prop_reassembly_single_oracle;
    QCheck_alcotest.to_alcotest prop_reassembly_multi_oracle;
    QCheck_alcotest.to_alcotest prop_vm_alu64_matches_reference;
    QCheck_alcotest.to_alcotest prop_vm_alu32_matches_reference;
    QCheck_alcotest.to_alcotest prop_jump_conditions_match_reference;
    QCheck_alcotest.to_alcotest prop_sequencer_releases_in_order;
    QCheck_alcotest.to_alcotest prop_ring_fifo_wraparound;
    QCheck_alcotest.to_alcotest prop_split_merge_id;
    QCheck_alcotest.to_alcotest prop_seq32_wrap_coalesce;
    QCheck_alcotest.to_alcotest prop_reassembly_gro_faults;
    QCheck_alcotest.to_alcotest prop_wire_fuzz_never_raises;
    Alcotest.test_case "simulation determinism" `Quick
      test_simulation_deterministic;
    Alcotest.test_case "protocol spans never overlap" `Quick
      test_protocol_spans_never_overlap;
  ]
