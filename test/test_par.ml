(* FlexPar determinism shard: the parallel engine must be invisible in
   the results.

   - The golden echo and kv worlds run as LPs of one cluster at
     domains = 1, 2, 4 and 8 and must reproduce the pinned sequential
     seed digests bit-for-bit at batch=1 (strict digests include the
     per-LP processed-event count), stay self-consistent at batch=8,
     and stay FlexSan-clean at domains=1.

   - The worker pool keeps an LP on one domain across runs, survives
     a run whose event raised, refuses nested runs and follows
     FLEXPAR_WORKERS.

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

(* Echo and kv as two LPs of one cluster (each a self-contained
   two-node world): this exercises the scheduler — worker assignment
   and the run-to-until barrier — while the digests pin that none of it
   leaks into results. *)
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

let expect_invalid name f =
  match f () with
  | _ -> Alcotest.failf "%s: Invalid_argument expected" name
  | exception Invalid_argument _ -> ()

let test_cluster_lp_not_solo () =
  let cl = Cl.create () in
  let a = Cl.add_lp ~name:"a" cl in
  expect_invalid "solo run on a cluster LP" (fun () -> Sim.Engine.run a);
  expect_invalid "solo step on a cluster LP" (fun () ->
      ignore (Sim.Engine.step a))

(* --- The worker pool ------------------------------------------------- *)

(* Two LPs that never talk, each ticking its own log at its own period
   with a draw from its own stream; LP 1's tick at [fail_at] raises.
   The logs are digested together with the event count and the
   workers used. *)
let ticks ?fail_at ~domains () =
  let cl = Cl.create ~seed:11L ~domains () in
  let a = Cl.add_lp ~name:"a" cl in
  let b = Cl.add_lp ~name:"b" cl in
  let log_a = Buffer.create 1024 and log_b = Buffer.create 1024 in
  let rec tick lp buf period () =
    let now = Sim.Engine.now lp in
    if lp == b && Some now = fail_at then failwith "ticks: seeded failure";
    Buffer.add_string buf
      (Printf.sprintf "%s@%d:%d\n" (Sim.Engine.Local.name lp) now
         (Sim.Rng.int (Sim.Engine.Local.rng lp) 1000));
    Sim.Engine.schedule lp period (tick lp buf period)
  in
  Sim.Engine.schedule a 0 (tick a log_a (Sim.Time.ns 125));
  Sim.Engine.schedule b 0 (tick b log_b (Sim.Time.ns 150));
  Cl.run ~until:(Sim.Time.us 100) cl;
  ( md5 (Buffer.contents log_a ^ Buffer.contents log_b),
    Cl.events_processed cl,
    Cl.workers_used cl )

(* The workers a 2-LP cluster at domains=8 uses: the host's cores or
   FLEXPAR_WORKERS, at most 2. *)
let workers_used () =
  let _, _, workers = ticks ~domains:8 () in
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
  let ref_digest, ref_events, _ = ticks ~domains:2 () in
  check_bool "made progress" true (ref_events > 1000);
  (match ticks ~fail_at:(Sim.Time.us 30) ~domains:2 () with
  | _ -> Alcotest.fail "the failing event's exception was not re-raised"
  | exception Failure m ->
      check_str "re-raised exception" "ticks: seeded failure" m);
  let digest, events, _ = ticks ~domains:2 () in
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
    Alcotest.test_case "cluster LP refuses a solo run" `Quick
      test_cluster_lp_not_solo;
    Alcotest.test_case "pool keeps LP 1's domain until solo work" `Quick
      test_pool_keeps_lp_domain;
    Alcotest.test_case "pool survives a failed run" `Quick
      test_pool_survives_failure;
    Alcotest.test_case "run inside an LP event is refused" `Quick
      test_nested_run_refused;
    Alcotest.test_case "FLEXPAR_WORKERS cap" `Quick test_worker_cap;
  ]

