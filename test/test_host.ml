(* Host substrate tests: CPU accounting, payload buffers, framing,
   KV protocol. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Host CPU ----------------------------------------------------------- *)

let test_cpu_fifo () =
  let e = Sim.Engine.create () in
  let cpu = Host.Host_cpu.create e ~cores:1 () in
  let core = Host.Host_cpu.core cpu 0 in
  let log = ref [] in
  Host.Host_cpu.exec core ~cycles:2000 (fun () ->
      log := ("a", Sim.Engine.now e) :: !log);
  Host.Host_cpu.exec core ~cycles:2000 (fun () ->
      log := ("b", Sim.Engine.now e) :: !log);
  Sim.Engine.run e;
  (* 2000 cycles at 2 GHz = 1 us each, in order. *)
  Alcotest.(check (list (pair string int)))
    "fifo with correct timing"
    [ ("b", Sim.Time.us 2); ("a", Sim.Time.us 1) ]
    !log

let test_cpu_accounting () =
  let e = Sim.Engine.create () in
  let cpu = Host.Host_cpu.create e ~cores:2 () in
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 0) ~category:"app" ~cycles:100
    ignore;
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 1) ~category:"app" ~cycles:50
    ignore;
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 0) ~category:"stack" ~cycles:10
    ignore;
  Sim.Engine.run e;
  Alcotest.(check (list (pair string int)))
    "per category"
    [ ("app", 150); ("stack", 10) ]
    (Host.Host_cpu.cycles_by_category cpu);
  check_int "total" 160 (Host.Host_cpu.total_cycles cpu)

let test_cpu_cores_independent () =
  let e = Sim.Engine.create () in
  let cpu = Host.Host_cpu.create e ~cores:2 () in
  let t0 = ref 0 and t1 = ref 0 in
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 0) ~cycles:20_000 (fun () ->
      t0 := Sim.Engine.now e);
  Host.Host_cpu.exec (Host.Host_cpu.core cpu 1) ~cycles:20_000 (fun () ->
      t1 := Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "parallel cores" !t0 !t1

(* --- Payload buffer ------------------------------------------------------- *)

let test_payload_wraparound () =
  let b = Host.Payload_buf.create ~size:16 in
  let data = Bytes.of_string "0123456789abcdef" in
  (* Write 10 bytes at stream offset 12: wraps at 16. *)
  Host.Payload_buf.write b ~off:12 ~src:data ~src_off:0 ~len:10;
  Alcotest.(check string)
    "wrapped readback" "0123456789"
    (Bytes.to_string (Host.Payload_buf.read b ~off:12 ~len:10))

let prop_payload_stream_semantics =
  QCheck.Test.make
    ~name:"payload buffer: non-overlapping in-window writes read back"
    ~count:200
    QCheck.(pair (int_bound 1000) (list_of_size (Gen.return 8) (int_bound 30)))
    (fun (base, lens) ->
      let size = 256 in
      let b = Host.Payload_buf.create ~size in
      (* Sequential stream writes within one window always read back. *)
      let off = ref base in
      let chunks =
        List.map
          (fun l ->
            let l = max 1 l in
            let data =
              Bytes.init l (fun i -> Char.chr ((!off + i) land 0xFF))
            in
            Host.Payload_buf.write b ~off:!off ~src:data ~src_off:0 ~len:l;
            let this = (!off, data) in
            off := !off + l;
            this)
          lens
      in
      (* Total must fit in the ring for all chunks to be intact. *)
      !off - base <= size
      && List.for_all
           (fun (o, data) ->
             Bytes.equal data
               (Host.Payload_buf.read b ~off:o ~len:(Bytes.length data)))
           chunks)

let test_payload_oversize_rejected () =
  let b = Host.Payload_buf.create ~size:8 in
  Alcotest.check_raises "oversize write"
    (Invalid_argument "Payload_buf.write: larger than buffer") (fun () ->
      Host.Payload_buf.write b ~off:0 ~src:(Bytes.create 9) ~src_off:0 ~len:9)

(* A marshalled copy of a buffer (a forked world) has its own empty
   chunks: they must still read as unmapped, and map on first write.
   The read is checked first, so a copy that takes an empty chunk for
   a mapped one fails before anything writes into it. *)
let test_payload_marshal_copy () =
  let module B = Host.Payload_buf in
  let b = B.create ~size:(3 * B.chunk) in
  B.write b ~off:0 ~src:(Bytes.of_string "head") ~src_off:0 ~len:4;
  let copy : B.t = Marshal.from_string (Marshal.to_string b []) 0 in
  let unmapped = Invalid_argument "Payload_buf.read: unmapped chunk" in
  let second = B.chunk + 8 in
  Alcotest.check_raises "original: unmapped" unmapped (fun () ->
      ignore (B.read b ~off:second ~len:4));
  Alcotest.check_raises "copy: unmapped" unmapped (fun () ->
      ignore (B.read copy ~off:second ~len:4));
  Alcotest.(check string)
    "copy keeps written bytes" "head"
    (Bytes.to_string (B.read copy ~off:0 ~len:4));
  B.write copy ~off:second ~src:(Bytes.of_string "tail") ~src_off:0 ~len:4;
  Alcotest.(check string)
    "copy maps on write" "tail"
    (Bytes.to_string (B.read copy ~off:second ~len:4));
  Alcotest.check_raises "original untouched" unmapped (fun () ->
      ignore (B.read b ~off:second ~len:4))

(* Model check of the chunked ring against a flat [Bytes] ring of the
   same size, which is what a buffer is meant to behave as. Random
   appends at the write head, in-window rewrites and out-of-order
   writes ahead of it, reads, releases and reads of released bytes, over
   many wraps. Sizes include one below a chunk, non-powers of two and
   non-multiples of the chunk. The model remembers, per ring index,
   the stream offset last written there: only bytes written at their
   current offset may be read back. The bytes in flight span at most
   ceil (in-flight / chunk) + 1 chunks, and one more where the ring
   wraps inside a partial last chunk. *)
let payload_model_sizes =
  [ 1; 7; 100; 1448; 4096; 5000; 8192; (3 * Host.Payload_buf.chunk) + 17 ]

let prop_payload_chunked_model =
  QCheck.Test.make ~name:"payload buffer: chunked ring matches a flat ring"
    ~count:300
    QCheck.(
      pair
        (int_bound (List.length payload_model_sizes - 1))
        (list_of_size (Gen.return 200)
           (triple (int_bound 5) (int_bound 100_000) (int_bound 100_000))))
    (fun (si, ops) ->
      let module B = Host.Payload_buf in
      let size = List.nth payload_model_sizes si in
      let b = B.create ~size in
      let flat = Bytes.make size '\000' in
      let at = Array.make size (-1) in
      let rel = ref 0 and hw = ref 0 and fresh = ref 0 in
      let write off len =
        let src =
          Bytes.init len (fun _ ->
              incr fresh;
              Char.chr (!fresh land 0xFF))
        in
        B.write b ~off ~src ~src_off:0 ~len;
        for i = 0 to len - 1 do
          Bytes.set flat ((off + i) mod size) (Bytes.get src i);
          at.((off + i) mod size) <- off + i
        done;
        if off + len > !hw then hw := off + len
      in
      let valid p = p >= !rel && at.(p mod size) = p in
      let raises f = try f (); false with Invalid_argument _ -> true in
      List.for_all
        (fun (kind, x, y) ->
          let room = !rel + size in
          let ok =
            match kind with
            | 0 ->
                (* Append at the write head. *)
                let off = Int.max !hw !rel in
                if off < room then write off (1 + (y mod (room - off)));
                true
            | 1 ->
                (* Anywhere in the window: a rewrite, or data ahead of
                   a gap. *)
                let off = !rel + (x mod size) in
                write off (1 + (y mod (room - off)));
                true
            | 2 | 3 ->
                (* Read back a run of valid bytes. *)
                if !hw <= !rel then true
                else begin
                  let p = !rel + (x mod (!hw - !rel)) in
                  let n = ref 0 in
                  while !n < 1 + (y mod size) && valid (p + !n) do incr n done;
                  let want i = Bytes.get flat ((p + i) mod size) in
                  !n = 0
                  || Bytes.equal (B.read b ~off:p ~len:!n) (Bytes.init !n want)
                end
            | 4 ->
                rel := !rel + (x mod (!hw - !rel + 1));
                B.release b ~upto:!rel;
                true
            | _ ->
                (* Released bytes are never read back. *)
                !rel = 0
                || raises (fun () ->
                       ignore
                         (B.read b ~off:(!rel - 1 - (x mod Int.min !rel size))
                            ~len:1))
          in
          ok
          && B.mapped_chunks b <= ((!hw - !rel + B.chunk - 1) / B.chunk) + 2
          && B.released b = !rel)
        ops)

(* --- Framing ------------------------------------------------------------------ *)

let test_framing_simple () =
  let d = Host.Framing.create () in
  Host.Framing.push d (Host.Framing.encode (Bytes.of_string "hello"));
  Alcotest.(check (option string))
    "one message" (Some "hello")
    (Option.map Bytes.to_string (Host.Framing.next d));
  Alcotest.(check (option string)) "empty" None
    (Option.map Bytes.to_string (Host.Framing.next d))

let prop_framing_chunking_invariant =
  QCheck.Test.make
    ~name:"framing: messages survive arbitrary stream chunking" ~count:200
    QCheck.(pair (list (string_of_size (Gen.int_range 0 50))) (int_range 1 7))
    (fun (msgs, chunk) ->
      let stream =
        Bytes.concat Bytes.empty
          (List.map (fun m -> Host.Framing.encode (Bytes.of_string m)) msgs)
      in
      let d = Host.Framing.create () in
      let n = Bytes.length stream in
      let i = ref 0 in
      let out = ref [] in
      while !i < n do
        let l = min chunk (n - !i) in
        Host.Framing.push d (Bytes.sub stream !i l);
        i := !i + l;
        Host.Framing.iter_available d (fun m ->
            out := Bytes.to_string m :: !out)
      done;
      List.rev !out = msgs)

(* Past the decoder's initial 4 KB: a long stream decoded as it
   arrives (the undecoded bytes move to the front of the buffer), and
   messages larger than the buffer pushed before any is decoded (the
   buffer grows). *)
let test_framing_long_streams () =
  let sizes =
    [ 10_000; 3; 5_000; 0; 70_000; 17 ] @ List.init 2_000 (fun i -> i mod 40)
  in
  let msgs =
    List.mapi (fun i n -> Bytes.make n (Char.chr (i land 0xff))) sizes
  in
  let stream = Bytes.concat Bytes.empty (List.map Host.Framing.encode msgs) in
  let decode ~chunk ~every =
    let d = Host.Framing.create () and out = ref [] in
    let n = Bytes.length stream in
    let rec go i k =
      if i < n then begin
        let l = Int.min chunk (n - i) in
        Host.Framing.push d (Bytes.sub stream i l);
        if k mod every = 0 then
          Host.Framing.iter_available d (fun m -> out := m :: !out);
        go (i + l) (k + 1)
      end
    in
    go 0 1;
    Host.Framing.iter_available d (fun m -> out := m :: !out);
    check_int "nothing left over" 0 (Host.Framing.buffered d);
    check_bool
      (Printf.sprintf "every message, in order (chunk %d, every %d)" chunk
         every)
      true
      (List.rev !out = msgs)
  in
  decode ~chunk:13 ~every:1;
  decode ~chunk:1_000 ~every:50;
  decode ~chunk:9_000 ~every:3

let test_framing_buffered () =
  let d = Host.Framing.create () in
  Host.Framing.push d (Bytes.of_string "\000\000");
  check_int "partial header buffered" 2 (Host.Framing.buffered d)

(* --- KV protocol ------------------------------------------------------------------ *)

let test_kv_request_roundtrip () =
  let reqs =
    [
      Host.App_kv.Get (Bytes.of_string "key1");
      Host.App_kv.Set (Bytes.of_string "key2", Bytes.of_string "value2");
      Host.App_kv.Set (Bytes.of_string "", Bytes.of_string "");
    ]
  in
  List.iter
    (fun r ->
      match Host.App_kv.decode_request (Host.App_kv.encode_request r) with
      | Some r' -> check_bool "roundtrip" true (r = r')
      | None -> Alcotest.fail "decode failed")
    reqs

let test_kv_response_roundtrip () =
  let resps =
    [
      Host.App_kv.Value (Bytes.of_string "v");
      Host.App_kv.Stored;
      Host.App_kv.Miss;
      Host.App_kv.Bad_request;
    ]
  in
  List.iter
    (fun r ->
      match Host.App_kv.decode_response (Host.App_kv.encode_response r) with
      | Some r' -> check_bool "roundtrip" true (r = r')
      | None -> Alcotest.fail "decode failed")
    resps

let prop_kv_roundtrip =
  QCheck.Test.make ~name:"kv: random request roundtrip" ~count:200
    QCheck.(pair (string_of_size (Gen.int_range 0 64))
              (string_of_size (Gen.int_range 0 256)))
    (fun (k, v) ->
      let r = Host.App_kv.Set (Bytes.of_string k, Bytes.of_string v) in
      Host.App_kv.decode_request (Host.App_kv.encode_request r) = Some r)

let test_kv_garbage_rejected () =
  Alcotest.(check (option reject)) "short" None
    (Host.App_kv.decode_request (Bytes.of_string "xx"));
  Alcotest.(check bool) "bad opcode" true
    (Host.App_kv.decode_request
       (Bytes.cat (Bytes.of_string "\x09\x00\x00")
          (Bytes.of_string "\x00\x00\x00\x00"))
    = None)

(* --- RPC stats -------------------------------------------------------------------- *)

let test_rpc_stats_window () =
  let e = Sim.Engine.create () in
  let s = Host.Rpc.Stats.create e in
  Host.Rpc.Stats.record_op s ~bytes:100;  (* before measuring: dropped *)
  Host.Rpc.Stats.start_measuring s;
  Host.Rpc.Stats.record_op s ~bytes:100;
  Host.Rpc.Stats.record_rtt s (Sim.Time.us 5);
  check_int "ops in window only" 1 (Host.Rpc.Stats.ops s);
  Alcotest.(check (float 0.2)) "rtt recorded" 5.0
    (Host.Rpc.Stats.rtt_percentile_us s 50.)

let test_rpc_stats_fairness () =
  let e = Sim.Engine.create () in
  let s = Host.Rpc.Stats.create e in
  Host.Rpc.Stats.start_measuring s;
  for _ = 1 to 10 do
    Host.Rpc.Stats.record_conn_op s ~conn:0 ~bytes:1
  done;
  for _ = 1 to 10 do
    Host.Rpc.Stats.record_conn_op s ~conn:1 ~bytes:1
  done;
  Alcotest.(check (float 1e-6)) "perfectly fair" 1.0
    (Host.Rpc.Stats.jain_index s)

let suite =
  [
    Alcotest.test_case "cpu FIFO timing" `Quick test_cpu_fifo;
    Alcotest.test_case "cpu accounting" `Quick test_cpu_accounting;
    Alcotest.test_case "cpu cores run in parallel" `Quick
      test_cpu_cores_independent;
    Alcotest.test_case "payload buffer wraparound" `Quick
      test_payload_wraparound;
    QCheck_alcotest.to_alcotest prop_payload_stream_semantics;
    QCheck_alcotest.to_alcotest prop_payload_chunked_model;
    Alcotest.test_case "payload oversize rejected" `Quick
      test_payload_oversize_rejected;
    Alcotest.test_case "payload buffer survives a marshalled copy" `Quick
      test_payload_marshal_copy;
    Alcotest.test_case "framing simple" `Quick test_framing_simple;
    QCheck_alcotest.to_alcotest prop_framing_chunking_invariant;
    Alcotest.test_case "framing partial header" `Quick test_framing_buffered;
    Alcotest.test_case "framing long streams and large messages" `Quick
      test_framing_long_streams;
    Alcotest.test_case "kv request roundtrip" `Quick test_kv_request_roundtrip;
    Alcotest.test_case "kv response roundtrip" `Quick
      test_kv_response_roundtrip;
    QCheck_alcotest.to_alcotest prop_kv_roundtrip;
    Alcotest.test_case "kv rejects garbage" `Quick test_kv_garbage_rejected;
    Alcotest.test_case "rpc stats measurement window" `Quick
      test_rpc_stats_window;
    Alcotest.test_case "rpc stats fairness" `Quick test_rpc_stats_fairness;
  ]

(* Open-loop generator: exercised against a FlexTOE pair elsewhere;
   here we check the Poisson arrival machinery's rate accuracy against
   a fast local server. *)
let test_open_loop_rate () =
  let engine = Sim.Engine.create () in
  let fabric = Netsim.Fabric.create engine () in
  let a = Flextoe.create_node engine ~fabric ~ip:0x0A000001 () in
  let b = Flextoe.create_node engine ~fabric ~ip:0x0A000002 () in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  ignore
    (Host.Rpc.open_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:0x0A000001 ~server_port:7 ~conns:8 ~rate_per_sec:100_000.
       ~req_bytes:64 ~stats ());
  Sim.Engine.run ~until:(Sim.Time.ms 10) engine;
  Host.Rpc.Stats.start_measuring stats;
  Sim.Engine.run ~until:(Sim.Time.ms 110) engine;
  (* 100k req/s over 100 ms = ~10k responses. *)
  let ops = Host.Rpc.Stats.ops stats in
  Alcotest.(check bool)
    (Printf.sprintf "open-loop rate ~100k/s (got %d in 100ms)" ops)
    true
    (ops > 9_000 && ops < 11_000)

let open_loop_suite =
  [ Alcotest.test_case "open-loop Poisson rate" `Quick test_open_loop_rate ]
