(* FlexPar determinism shard (PR9): the conservative parallel engine
   must be invisible in the results.

   - The golden echo and kv worlds run as LPs of one cluster at
     domains = 1, 2, 4 and 8 and must reproduce the pinned sequential
     seed digests bit-for-bit at batch=1 (strict digests include the
     per-LP processed-event count), stay self-consistent at batch=8,
     and stay FlexSan-clean at domains=1.

   - Channel properties: positive lookahead enforced at construction
     and on every send, per-channel FIFO + channel-id merge order at
     equal timestamps, min_slack never below the declared latency.

   - The fabric has one forwarding path: a partitioned fabric delivers
     a byte- and time-identical trace at every domain count, equal to
     the same fabric with both ports on one solo engine.

   - Metrics need no merge: each profiled node's FlexScope recorder
     lives on its own LP, and the golden metrics digest is the same
     at every domain count. *)

module Cl = Sim.Engine.Cluster
module W = Golden_worlds

let check_str = Alcotest.(check string)
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let md5 = W.md5
let domain_counts = [ 1; 2; 4; 8 ]

(* --- Golden worlds under the cluster ---------------------------------- *)

(* Echo and kv as two LPs of one cluster: no channel connects them (the
   worlds are self-contained two-node simulations), so this exercises
   the scheduler — worker assignment, horizons with no inputs, the
   run-to-until barrier — while the digests pin that none of it leaks
   into results. *)
let run_worlds ~domains ~batch ?(scope = false) ?(san = false) ?(scale = 0)
    () =
  let cl = Cl.create ~seed:7L ~domains () in
  let echo_lp = Cl.add_lp ~name:"echo" ~seed:W.echo_seed cl in
  let kv_lp = Cl.add_lp ~name:"kv" ~seed:W.kv_seed cl in
  let fin_echo = W.setup_echo ~batch ~scope ~san ~scale ~engine:echo_lp () in
  let fin_kv = W.setup_kv ~batch ~scope ~san ~scale ~engine:kv_lp () in
  Cl.run ~until:(Sim.Time.ms 10) cl;
  check_int "gvt reached until" (Sim.Time.ms 10) (Cl.gvt cl);
  (fin_echo (), fin_kv ())

let test_golden_bit_identical_across_domains () =
  List.iter
    (fun domains ->
      let echo, kv = run_worlds ~domains ~batch:1 () in
      check_str
        (Printf.sprintf "echo strict digest at domains=%d" domains)
        W.seed_echo_strict echo.W.strict_digest;
      check_str
        (Printf.sprintf "echo payload digest at domains=%d" domains)
        W.seed_echo_payload echo.W.payload_digest;
      check_str
        (Printf.sprintf "kv strict digest at domains=%d" domains)
        W.seed_kv_strict kv.W.strict_digest;
      check_str
        (Printf.sprintf "kv payload digest at domains=%d" domains)
        W.seed_kv_payload kv.W.payload_digest)
    domain_counts

let test_golden_metrics_across_domains () =
  List.iter
    (fun domains ->
      let echo, _ = run_worlds ~domains ~batch:1 ~scope:true () in
      check_str
        (Printf.sprintf "echo metrics digest at domains=%d" domains)
        W.seed_echo_metrics echo.W.metrics_digest;
      check_str
        (Printf.sprintf "echo payload under profiling at domains=%d" domains)
        W.seed_echo_payload echo.W.payload_digest)
    domain_counts

let test_golden_batched_across_domains () =
  (* batch=8 digests are not pinned (batching legitimately changes
     timing); what must hold is equality across domain counts. *)
  let ref_echo, ref_kv = run_worlds ~domains:1 ~batch:8 () in
  List.iter
    (fun domains ->
      let echo, kv = run_worlds ~domains ~batch:8 () in
      check_str
        (Printf.sprintf "echo batch=8 strict digest at domains=%d" domains)
        ref_echo.W.strict_digest echo.W.strict_digest;
      check_str
        (Printf.sprintf "kv batch=8 strict digest at domains=%d" domains)
        ref_kv.W.strict_digest kv.W.strict_digest)
    (List.tl domain_counts)

let test_sharded_worlds_across_domains () =
  (* FlexScale shards > 1: digests are not pinned to the sequential
     seed (steering and per-shard scheduler queues legitimately change
     event order), but the sharded world is still one deterministic
     program — its strict digests (including per-LP processed-event
     counts) must be equal at every domain count, and shards=1 under
     the cluster must still reproduce the pinned seed digests. *)
  let one_echo, one_kv = run_worlds ~domains:1 ~batch:1 ~scale:1 () in
  check_str "sharded shards=1 echo strict digest = seed"
    W.seed_echo_strict one_echo.W.strict_digest;
  check_str "sharded shards=1 kv strict digest = seed" W.seed_kv_strict
    one_kv.W.strict_digest;
  List.iter
    (fun scale ->
      let ref_echo, ref_kv = run_worlds ~domains:1 ~batch:1 ~scale () in
      check_bool
        (Printf.sprintf "sharded echo made progress at shards=%d" scale)
        true (ref_echo.W.ops > 500);
      List.iter
        (fun domains ->
          let echo, kv = run_worlds ~domains ~batch:1 ~scale () in
          check_str
            (Printf.sprintf "sharded echo strict digest shards=%d domains=%d"
               scale domains)
            ref_echo.W.strict_digest echo.W.strict_digest;
          check_str
            (Printf.sprintf "sharded kv strict digest shards=%d domains=%d"
               scale domains)
            ref_kv.W.strict_digest kv.W.strict_digest)
        [ 2; 4 ])
    [ 2; 4 ]

let test_flexsan_clean_under_cluster () =
  List.iter
    (fun batch ->
      let echo, _ = run_worlds ~domains:1 ~batch ~san:true () in
      check_int
        (Printf.sprintf "FlexSan clean under cluster at batch=%d" batch)
        0 echo.W.races)
    [ 1; 8 ]

let test_phased_run_continues () =
  (* Cluster.run is re-runnable with a larger [until]: warmup /
     measurement phasing must not perturb the digests. *)
  let cl = Cl.create ~seed:7L ~domains:2 () in
  let echo_lp = Cl.add_lp ~name:"echo" ~seed:W.echo_seed cl in
  let kv_lp = Cl.add_lp ~name:"kv" ~seed:W.kv_seed cl in
  let fin_echo = W.setup_echo ~engine:echo_lp () in
  let fin_kv = W.setup_kv ~engine:kv_lp () in
  Cl.run ~until:(Sim.Time.ms 5) cl;
  Cl.run ~until:(Sim.Time.ms 10) cl;
  let echo = fin_echo () and kv = fin_kv () in
  check_str "phased echo strict digest" W.seed_echo_strict
    echo.W.strict_digest;
  check_str "phased kv strict digest" W.seed_kv_strict kv.W.strict_digest

(* --- Channel properties ------------------------------------------------ *)

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: Invalid_argument expected" name
  | exception Invalid_argument _ -> ()

let test_channel_validation () =
  let cl = Cl.create () in
  let a = Cl.add_lp ~name:"a" cl in
  let b = Cl.add_lp ~name:"b" cl in
  expect_invalid "zero lookahead" (fun () ->
      Cl.channel cl ~src:a ~dst:b ~min_latency:Sim.Time.zero);
  expect_invalid "negative lookahead" (fun () ->
      Cl.channel cl ~src:a ~dst:b ~min_latency:(-5));
  expect_invalid "self channel" (fun () ->
      Cl.channel cl ~src:a ~dst:a ~min_latency:(Sim.Time.ns 10));
  let other = Cl.create () in
  let c = Cl.add_lp other in
  expect_invalid "foreign LP" (fun () ->
      Cl.channel cl ~src:a ~dst:c ~min_latency:(Sim.Time.ns 10));
  let ch = Cl.channel cl ~src:a ~dst:b ~min_latency:(Sim.Time.ns 100) in
  expect_invalid "send below lookahead" (fun () ->
      Cl.send ch ~at:(Sim.Time.ns 50) (fun () -> ()));
  expect_invalid "solo run on a cluster LP" (fun () -> Sim.Engine.run a);
  expect_invalid "solo step on a cluster LP" (fun () ->
      ignore (Sim.Engine.step a))

let test_merge_order_deterministic () =
  (* At one timestamp the destination must execute: channel messages
     before local events, channels in id order, FIFO within a
     channel — the total order the determinism argument rests on. *)
  let cl = Cl.create () in
  let a = Cl.add_lp ~name:"a" cl in
  let b = Cl.add_lp ~name:"b" cl in
  let ch0 = Cl.channel cl ~src:a ~dst:b ~min_latency:(Sim.Time.ns 100) in
  let ch1 = Cl.channel cl ~src:a ~dst:b ~min_latency:(Sim.Time.ns 100) in
  let log = ref [] in
  let tag s () = log := s :: !log in
  Sim.Engine.schedule_at b (Sim.Time.ns 500) (tag "local");
  (* Sends in an order adversarial to the expectation: ch1 first,
     then ch0 twice (FIFO within ch0). *)
  Cl.send ch1 ~at:(Sim.Time.ns 500) (tag "ch1");
  Cl.send ch0 ~at:(Sim.Time.ns 500) (tag "ch0-first");
  Cl.send ch0 ~at:(Sim.Time.ns 500) (tag "ch0-second");
  Cl.run ~until:(Sim.Time.us 1) cl;
  Alcotest.(check (list string))
    "channel-id order, FIFO within, locals last"
    [ "ch0-first"; "ch0-second"; "ch1"; "local" ]
    (List.rev !log);
  check_int "ch0 sent" 2 (Cl.channel_sent ch0);
  check_int "ch0 delivered" 2 (Cl.channel_delivered ch0);
  (match Cl.min_slack ch0 with
  | Some s ->
      check_bool "min_slack >= latency" true (s >= Cl.latency ch0)
  | None -> Alcotest.fail "min_slack unset after sends");
  check_int "observed slack is the send slack" (Sim.Time.ns 500)
    (Option.get (Cl.min_slack ch1))

(* Pseudo-random send schedule: whatever the offsets, every observed
   slack stays >= the declared lookahead and every message arrives
   exactly once, in timestamp order. *)
let test_slack_property () =
  let cl = Cl.create () in
  let a = Cl.add_lp ~name:"a" cl in
  let b = Cl.add_lp ~name:"b" cl in
  let la = Sim.Time.ns 250 in
  let ch = Cl.channel cl ~src:a ~dst:b ~min_latency:la in
  let rng = Sim.Rng.create 99L in
  let arrivals = ref [] in
  let n = 200 in
  (* A self-rescheduling sender event on [a]: each firing sends one
     message with a random extra slack. *)
  let sent = ref 0 in
  let rec sender () =
    if !sent < n then begin
      incr sent;
      let extra = Sim.Rng.int rng 500 in
      Cl.send ch
        ~at:(Sim.Engine.now a + la + extra)
        (fun () -> arrivals := Sim.Engine.now b :: !arrivals);
      Sim.Engine.schedule a (1 + Sim.Rng.int rng 300) sender
    end
  in
  Sim.Engine.schedule a 0 sender;
  Cl.run ~until:(Sim.Time.ms 1) cl;
  check_int "all messages delivered" n (List.length !arrivals);
  check_int "sent counter" n (Cl.channel_sent ch);
  check_int "delivered counter" n (Cl.channel_delivered ch);
  let slack = Option.get (Cl.min_slack ch) in
  check_bool "min slack >= declared lookahead" true (slack >= la);
  let sorted = List.sort compare !arrivals in
  check_bool "arrivals executed in timestamp order" true
    (List.rev !arrivals = sorted)

(* --- Ping-pong determinism across domains ------------------------------ *)

(* Two LPs exchanging a token through channels with different
   lookaheads, plus same-instant local ticks on both sides. The
   per-LP observation logs (each written only by its owning LP) must
   be identical at every domain count. *)
let pingpong ?fail_round ~domains () =
  let cl = Cl.create ~seed:11L ~domains () in
  let a = Cl.add_lp ~name:"a" cl in
  let b = Cl.add_lp ~name:"b" cl in
  let ab = Cl.channel cl ~src:a ~dst:b ~min_latency:(Sim.Time.ns 100) in
  let ba = Cl.channel cl ~src:b ~dst:a ~min_latency:(Sim.Time.ns 150) in
  let log_a = Buffer.create 1024 and log_b = Buffer.create 1024 in
  let rounds = 200 in
  let rec on_b n =
    if Some n = fail_round then failwith "pingpong: seeded failure";
    Buffer.add_string log_b (Printf.sprintf "b:%d@%d\n" n (Sim.Engine.now b));
    if n < rounds then
      Cl.send ba
        ~at:(Sim.Engine.now b + Sim.Time.ns 150)
        (fun () -> on_a (n + 1))
  and on_a n =
    Buffer.add_string log_a (Printf.sprintf "a:%d@%d\n" n (Sim.Engine.now a));
    if n < rounds then
      Cl.send ab
        ~at:(Sim.Engine.now a + Sim.Time.ns 100)
        (fun () -> on_b (n + 1))
  in
  Cl.send ab ~at:(Sim.Time.ns 100) (fun () -> on_b 0);
  (* Local ticks colliding with deliveries. *)
  let rec tick lp buf () =
    Buffer.add_string buf (Printf.sprintf "tick@%d\n" (Sim.Engine.now lp));
    if Sim.Engine.now lp < Sim.Time.us 40 then
      Sim.Engine.schedule lp (Sim.Time.ns 125) (tick lp buf)
  in
  Sim.Engine.schedule a 0 (tick a log_a);
  Sim.Engine.schedule b 0 (tick b log_b);
  Cl.run ~until:(Sim.Time.us 100) cl;
  ( md5 (Buffer.contents log_a ^ Buffer.contents log_b),
    Cl.events_processed cl,
    Cl.workers_used cl )

let test_pingpong_across_domains () =
  let ref_digest, ref_events, _ = pingpong ~domains:1 () in
  check_bool "made progress" true (ref_events > 400);
  List.iter
    (fun domains ->
      let digest, events, workers = pingpong ~domains () in
      check_str
        (Printf.sprintf "ping-pong trace at domains=%d" domains)
        ref_digest digest;
      check_int
        (Printf.sprintf "events processed at domains=%d" domains)
        ref_events events;
      check_bool "workers bounded by LPs" true (workers <= 2))
    (List.tl domain_counts)

(* --- Partitioned fabric ------------------------------------------------ *)

let mk_frame ?(payload = 100) ~src ~dst () =
  let seg =
    Tcp.Segment.make
      ~payload:(Bytes.make payload 'x')
      ~src_ip:src ~dst_ip:dst ~src_port:1 ~dst_port:2 ~seq:0 ~ack_seq:0 ()
  in
  Tcp.Segment.make_frame ~src_mac:src ~dst_mac:dst seg

(* Bidirectional traffic between two ports; each port records every
   delivery as (port, home-LP time, wire length) into its own buffer.
   [mk_engines] yields the two home engines and a run function, so the
   same world runs solo (both ports on one engine) or partitioned (one
   LP each). *)
let fabric_trace ~mk_engines () =
  let ea, eb, run, partition = mk_engines () in
  let fab = Netsim.Fabric.create ea () in
  let bufs = [| Buffer.create 1024; Buffer.create 1024 |] in
  let record i home frame =
    Buffer.add_string bufs.(i)
      (Printf.sprintf "%d@%d:%d\n" i (Sim.Engine.now home)
         (Tcp.Segment.frame_wire_len frame))
  in
  let pa =
    Netsim.Fabric.add_port fab ~engine:ea ~mac:1 ~ip:1
      ~rx:(fun f -> record 0 ea f)
      ()
  in
  let pb =
    Netsim.Fabric.add_port fab ~engine:eb ~mac:2 ~ip:2
      ~rx:(fun f -> record 1 eb f)
      ()
  in
  partition fab;
  for k = 0 to 39 do
    Sim.Engine.schedule_at ea
      (Sim.Time.us (1 + (3 * k / 2)))
      (fun () ->
        Netsim.Fabric.transmit pa
          (mk_frame ~payload:(64 + (16 * (k mod 8))) ~src:1 ~dst:2 ()))
  done;
  for k = 0 to 29 do
    Sim.Engine.schedule_at eb
      (Sim.Time.us (1 + (2 * k)))
      (fun () ->
        Netsim.Fabric.transmit pb
          (mk_frame ~payload:(128 + (32 * (k mod 4))) ~src:2 ~dst:1 ()))
  done;
  run ();
  ( md5 (Buffer.contents bufs.(0) ^ Buffer.contents bufs.(1)),
    Netsim.Fabric.delivered fab )

let solo_engines () =
  let e = Sim.Engine.create ~seed:5L () in
  (e, e, (fun () -> Sim.Engine.run ~until:(Sim.Time.ms 1) e), fun _ -> ())

let cluster_engines ~domains () =
  let cl = Cl.create ~seed:5L ~domains () in
  let ea = Cl.add_lp ~name:"a" cl in
  let eb = Cl.add_lp ~name:"b" cl in
  ( ea,
    eb,
    (fun () -> Cl.run ~until:(Sim.Time.ms 1) cl),
    fun fab -> Netsim.Fabric.partition fab ~cluster:cl )

let test_partitioned_fabric_matches_solo () =
  let solo_digest, solo_delivered =
    fabric_trace ~mk_engines:solo_engines ()
  in
  check_int "solo engine delivers everything" 70 solo_delivered;
  List.iter
    (fun domains ->
      let digest, delivered =
        fabric_trace ~mk_engines:(cluster_engines ~domains) ()
      in
      check_int
        (Printf.sprintf "partitioned delivers everything at domains=%d"
           domains)
        70 delivered;
      check_str
        (Printf.sprintf
           "partitioned trace identical to solo engine at domains=%d"
           domains)
        solo_digest digest)
    domain_counts

let test_fabric_partition_freezes_ports () =
  let cl = Cl.create () in
  let ea = Cl.add_lp cl in
  let eb = Cl.add_lp cl in
  let fab = Netsim.Fabric.create ea () in
  ignore
    (Netsim.Fabric.add_port fab ~engine:ea ~mac:1 ~ip:1 ~rx:(fun _ -> ()) ());
  ignore
    (Netsim.Fabric.add_port fab ~engine:eb ~mac:2 ~ip:2 ~rx:(fun _ -> ()) ());
  check_bool "not partitioned yet" false (Netsim.Fabric.partitioned fab);
  Netsim.Fabric.partition fab ~cluster:cl;
  check_bool "partitioned" true (Netsim.Fabric.partitioned fab);
  expect_invalid "add_port after partition" (fun () ->
      Netsim.Fabric.add_port fab ~engine:ea ~mac:3 ~ip:3 ~rx:(fun _ -> ()) ());
  expect_invalid "partition twice" (fun () ->
      Netsim.Fabric.partition fab ~cluster:cl)

(* --- The worker pool ------------------------------------------------- *)

(* The workers a 2-LP cluster at domains=8 uses: the host's cores or
   FLEXPAR_WORKERS, at most 2. *)
let workers_used () =
  let _, _, workers = pingpong ~domains:8 () in
  workers

(* A 2-LP cluster whose LP 1 records the domain that runs each of its
   events; with one worker (a 1-core host without FLEXPAR_WORKERS)
   that is the calling domain. *)
let lp1_domains () =
  let cl = Cl.create ~domains:2 () in
  let _ = Cl.add_lp cl in
  let lp1 = Cl.add_lp cl in
  let seen = ref [] in
  let step () =
    Sim.Engine.schedule lp1 (Sim.Time.ns 10) (fun () ->
        seen := (Domain.self () :> int) :: !seen)
  in
  let run_to t =
    step ();
    Cl.run ~until:t cl
  in
  (cl, seen, run_to)

let test_pool_keeps_lp_domain () =
  let cl, seen, run_to = lp1_domains () in
  for i = 1 to 100 do
    run_to (Sim.Time.us i)
  done;
  check_int "one event per run" 100 (List.length !seen);
  let d = List.hd !seen in
  check_bool "LP 1 ran on one domain in 100 runs" true
    (List.for_all (( = ) d) !seen);
  let main = (Domain.self () :> int) in
  check_bool "LP 1 ran off the calling domain iff there were 2 workers"
    (Cl.workers_used cl = 2) (d <> main);
  let cl2, seen2, run_to2 = lp1_domains () in
  run_to2 (Sim.Time.us 1);
  check_int "same worker count" (Cl.workers_used cl) (Cl.workers_used cl2);
  check_int "a second cluster reuses LP 1's domain" d (List.hd !seen2);
  (* A parked worker would slow solo work: a solo engine, or a run
     with fewer workers, joins it, and the next 2-worker run spawns a
     new domain (domain ids are never reused). *)
  if Cl.workers_used cl = 2 then begin
    ignore (Sim.Engine.create ());
    run_to (Sim.Time.us 101);
    let d' = List.hd !seen in
    check_bool "a solo engine retired the worker" true (d' <> d);
    Cl.set_domains cl 1;
    run_to (Sim.Time.us 102);
    Cl.set_domains cl 2;
    run_to (Sim.Time.us 103);
    check_bool "a 1-worker run retired the worker" true (List.hd !seen <> d')
  end

let test_pool_survives_failure () =
  let ref_digest, ref_events, _ = pingpong ~domains:2 () in
  (match pingpong ~fail_round:50 ~domains:2 () with
  | _ -> Alcotest.fail "the failing event's exception was not re-raised"
  | exception Failure m ->
      check_str "re-raised exception" "pingpong: seeded failure" m);
  let digest, events, _ = pingpong ~domains:2 () in
  check_str "digest after a failed run" ref_digest digest;
  check_int "events after a failed run" ref_events events

let test_nested_run_refused () =
  let outer = Cl.create ~domains:2 () in
  let a = Cl.add_lp outer in
  let _ = Cl.add_lp outer in
  let other = Cl.create ~domains:2 () in
  let o = Cl.add_lp other in
  let _ = Cl.add_lp other in
  let o_ran = ref false in
  Sim.Engine.schedule o (Sim.Time.ns 5) (fun () -> o_ran := true);
  let refused = ref [] in
  let try_run name cl =
    match Cl.run ~until:(Sim.Time.us 1) cl with
    | () -> ()
    | exception Invalid_argument _ -> refused := name :: !refused
  in
  Sim.Engine.schedule a (Sim.Time.ns 10) (fun () ->
      try_run "same" outer;
      try_run "other" other);
  Cl.run ~until:(Sim.Time.us 1) outer;
  Alcotest.(check (list string))
    "both nested runs refused" [ "other"; "same" ] !refused;
  check_bool "the refused cluster did not run" false !o_ran;
  Cl.run ~until:(Sim.Time.us 1) other;
  check_bool "the refused cluster runs afterwards" true !o_ran

let test_worker_cap () =
  check_int "unset: the host's domains"
    (Domain.recommended_domain_count ()) (Cl.worker_cap None);
  check_int "2" 2 (Cl.worker_cap (Some "2"));
  check_int "clamped" Cl.max_workers (Cl.worker_cap (Some "64"));
  check_int "clamped past int range" Cl.max_workers
    (Cl.worker_cap (Some "99999999999999999999999"));
  List.iter
    (fun v ->
      expect_invalid (Printf.sprintf "FLEXPAR_WORKERS=%S" v) (fun () ->
          Cl.worker_cap (Some v)))
    [ "0"; "-1"; ""; "two"; "2x"; " 2"; "+2"; "0x2" ];
  check_int "a run's workers follow the cap"
    (Int.min 2 (Cl.worker_cap (Sys.getenv_opt "FLEXPAR_WORKERS")))
    (workers_used ())

(* FlexTOE nodes on two LPs of a partitioned fabric: every frame
   crosses LPs, and a data frame whose payload the sender's fabric
   port would carry by reference is built on the source LP before
   [Cluster.send], so the destination LP never reads the sender's
   buffer. *)
let run_partitioned_stream ~domains =
  let cl = Cl.create ~seed:7L ~domains () in
  let server = Cl.add_lp ~name:"server" ~seed:11L cl in
  let client = Cl.add_lp ~name:"client" ~seed:12L cl in
  let nodes = ref [] in
  let fin =
    W.setup_stream ~engine:server ~client_engine:client ~cluster:cl ~nodes ()
  in
  Cl.run ~until:(Sim.Time.ms 3) cl;
  let stat f =
    List.fold_left
      (fun n node -> n + f (Flextoe.Datapath.stats (Flextoe.datapath node)))
      0 !nodes
  in
  ( fin (),
    stat (fun st -> st.Flextoe.Datapath.tx_deferred),
    stat (fun st -> st.Flextoe.Datapath.tx_copied) )

let test_partitioned_stream_across_domains () =
  let one, deferred, copied = run_partitioned_stream ~domains:1 in
  check_int "every byte crossed LPs" (2 * 256 * 1024) one.W.received;
  check_int "no corrupt byte" 0 one.W.corrupt;
  check_int "no frame crossed LPs unbuilt" 0 deferred;
  check_bool "data frames were built at the source" true (copied > 0);
  let two, _, _ = run_partitioned_stream ~domains:2 in
  check_str "strict digest at domains=2" one.W.run.W.strict_digest
    two.W.run.W.strict_digest;
  check_str "payload digest at domains=2" one.W.run.W.payload_digest
    two.W.run.W.payload_digest

let suite =
  [
    Alcotest.test_case "golden worlds bit-identical at domains=1,2,4,8"
      `Quick test_golden_bit_identical_across_domains;
    Alcotest.test_case "golden metrics digest across domains" `Quick
      test_golden_metrics_across_domains;
    Alcotest.test_case "golden batch=8 equal across domains" `Quick
      test_golden_batched_across_domains;
    Alcotest.test_case "sharded worlds identical at domains=1,2,4" `Quick
      test_sharded_worlds_across_domains;
    Alcotest.test_case "FlexSan clean under cluster" `Quick
      test_flexsan_clean_under_cluster;
    Alcotest.test_case "phased run continues bit-identically" `Quick
      test_phased_run_continues;
    Alcotest.test_case "channel validation" `Quick test_channel_validation;
    Alcotest.test_case "same-instant merge order" `Quick
      test_merge_order_deterministic;
    Alcotest.test_case "slack property under random sends" `Quick
      test_slack_property;
    Alcotest.test_case "ping-pong identical across domains" `Quick
      test_pingpong_across_domains;
    Alcotest.test_case "partitioned fabric = solo-engine fabric" `Quick
      test_partitioned_fabric_matches_solo;
    Alcotest.test_case "fabric partition freezes ports" `Quick
      test_fabric_partition_freezes_ports;
    Alcotest.test_case "partitioned FlexTOE stream at domains=1,2" `Quick
      test_partitioned_stream_across_domains;
    Alcotest.test_case "pool keeps LP 1's domain until solo work" `Quick
      test_pool_keeps_lp_domain;
    Alcotest.test_case "pool survives a failed run" `Quick
      test_pool_survives_failure;
    Alcotest.test_case "run inside an LP event is refused" `Quick
      test_nested_run_refused;
    Alcotest.test_case "FLEXPAR_WORKERS cap" `Quick test_worker_cap;
  ]

