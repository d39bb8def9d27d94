(* NFP-4000 hardware-model tests: caches, FPC timing, DMA, rings. *)

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let params = Nfp.Params.default

(* --- CAM (LRU) --------------------------------------------------------- *)

let test_cam_lru_eviction () =
  let c = Nfp.Cam.create ~entries:3 in
  ignore (Nfp.Cam.insert c 1 "a");
  ignore (Nfp.Cam.insert c 2 "b");
  ignore (Nfp.Cam.insert c 3 "c");
  (* Touch 1 so it becomes MRU; inserting 4 must evict 2. *)
  ignore (Nfp.Cam.find c 1);
  (match Nfp.Cam.insert c 4 "d" with
  | Some (2, "b") -> ()
  | Some (k, _) -> Alcotest.failf "evicted %d, expected 2" k
  | None -> Alcotest.fail "expected an eviction");
  check_bool "1 still present" true (Nfp.Cam.mem c 1);
  check_bool "2 evicted" false (Nfp.Cam.mem c 2)

let test_cam_hit_miss_counters () =
  let c = Nfp.Cam.create ~entries:2 in
  ignore (Nfp.Cam.find c 7);
  ignore (Nfp.Cam.insert c 7 ());
  ignore (Nfp.Cam.find c 7);
  check_int "hits" 1 (Nfp.Cam.hits c);
  check_int "misses" 1 (Nfp.Cam.misses c)

let test_cam_overwrite () =
  let c = Nfp.Cam.create ~entries:2 in
  ignore (Nfp.Cam.insert c 1 "x");
  ignore (Nfp.Cam.insert c 1 "y");
  check_int "no duplicate" 1 (Nfp.Cam.length c);
  Alcotest.(check (option string)) "updated" (Some "y") (Nfp.Cam.find c 1)

let prop_cam_never_exceeds_capacity =
  QCheck.Test.make ~name:"cam: occupancy bounded by capacity" ~count:100
    QCheck.(list (int_bound 50))
    (fun keys ->
      let c = Nfp.Cam.create ~entries:16 in
      List.iter (fun k -> ignore (Nfp.Cam.insert c k k)) keys;
      Nfp.Cam.length c <= 16)

(* --- Direct-mapped cache -------------------------------------------------- *)

let test_direct_cache_conflicts () =
  let c = Nfp.Direct_cache.create ~entries:8 in
  check_bool "cold miss" false (Nfp.Direct_cache.access c 1);
  check_bool "hit" true (Nfp.Direct_cache.access c 1);
  (* 9 maps to the same slot as 1: conflict evicts. *)
  check_bool "conflict miss" false (Nfp.Direct_cache.access c 9);
  check_bool "1 was evicted" false (Nfp.Direct_cache.access c 1)

let test_direct_cache_invalidate () =
  let c = Nfp.Direct_cache.create ~entries:8 in
  ignore (Nfp.Direct_cache.access c 3);
  Nfp.Direct_cache.invalidate c 3;
  check_bool "gone" false (Nfp.Direct_cache.probe c 3)

(* --- LRU (EMEM cache) ------------------------------------------------------- *)

let test_lru_eviction_order () =
  let l = Nfp.Lru.create ~entries:3 in
  ignore (Nfp.Lru.access l 1);
  ignore (Nfp.Lru.access l 2);
  ignore (Nfp.Lru.access l 3);
  ignore (Nfp.Lru.access l 1);  (* 2 is now LRU *)
  ignore (Nfp.Lru.access l 4);  (* evicts 2 *)
  check_bool "2 evicted" false (Nfp.Lru.mem l 2);
  check_bool "1 kept" true (Nfp.Lru.mem l 1);
  check_int "size stable" 3 (Nfp.Lru.length l)

let prop_lru_working_set =
  QCheck.Test.make
    ~name:"lru: working set smaller than capacity always hits after warmup"
    ~count:50
    QCheck.(int_range 1 64)
    (fun ws ->
      let l = Nfp.Lru.create ~entries:64 in
      for i = 0 to ws - 1 do
        ignore (Nfp.Lru.access l i)
      done;
      let all_hit = ref true in
      for _ = 1 to 3 do
        for i = 0 to ws - 1 do
          if not (Nfp.Lru.access l i) then all_hit := false
        done
      done;
      !all_hit)

(* --- FPC timing ---------------------------------------------------------------- *)

let test_fpc_compute_serialises () =
  let e = Sim.Engine.create () in
  let fpc = Nfp.Fpc.create e ~params ~threads:8 ~name:"t" () in
  let done_at = ref [] in
  for _ = 1 to 4 do
    Nfp.Fpc.submit fpc [ Nfp.Fpc.Compute 100 ] (fun () ->
        done_at := Sim.Engine.now e :: !done_at)
  done;
  Sim.Engine.run e;
  (* 4 x 100 cycles at 800 MHz: pure compute serialises on the issue
     unit even with 8 threads. *)
  check_int "last completion" (4 * 100 * 1250) (List.hd !done_at);
  check_int "items" 4 (Nfp.Fpc.items_completed fpc)

let test_fpc_threads_hide_memory_latency () =
  let run threads =
    let e = Sim.Engine.create () in
    let fpc = Nfp.Fpc.create e ~params ~threads ~name:"t" () in
    let finish = ref 0 in
    for _ = 1 to 8 do
      Nfp.Fpc.submit fpc
        [ Nfp.Fpc.Compute 50; Mem Nfp.Memory.Emem; Compute 50 ]
        (fun () -> finish := max !finish (Sim.Engine.now e))
    done;
    Sim.Engine.run e;
    !finish
  in
  let serial = run 1 in
  let threaded = run 8 in
  (* 1 thread: 8 x (100 compute + 500 stall) = 4800 cycles.
     8 threads: stalls overlap -> dominated by compute + one stall. *)
  check_int "serial" (8 * 600 * 1250) serial;
  check_bool "threads hide stalls" true (threaded < serial / 3)

let test_fpc_queue_when_threads_busy () =
  let e = Sim.Engine.create () in
  let fpc = Nfp.Fpc.create e ~params ~threads:2 ~name:"t" () in
  for _ = 1 to 5 do
    Nfp.Fpc.submit fpc [ Nfp.Fpc.Sleep (Sim.Time.us 10) ] ignore
  done;
  Sim.Engine.run ~until:(Sim.Time.us 1) e;
  check_int "2 in flight" 2 (Nfp.Fpc.in_flight fpc);
  check_int "3 queued" 3 (Nfp.Fpc.queue_length fpc);
  Sim.Engine.run e;
  check_int "all done" 5 (Nfp.Fpc.items_completed fpc)

let test_fpc_utilization () =
  let e = Sim.Engine.create () in
  let fpc = Nfp.Fpc.create e ~params ~threads:1 ~name:"t" () in
  Nfp.Fpc.submit fpc [ Nfp.Fpc.Compute 800 ] ignore;
  Sim.Engine.run e;
  (* 800 cycles at 800 MHz = 1 us busy. *)
  Alcotest.(check (float 0.01))
    "50% busy over 2us" 0.5
    (Nfp.Fpc.utilization fpc ~total:(Sim.Time.us 2))

(* Which hardware thread ran each item, and when it completed, under
   core contention: 3 threads, more items than threads, compute bursts
   that queue two deep for the issue unit, memory stalls and sleeps, a
   submission from inside a completion and a later burst. The recording
   tracer sees (token, slot, completion time in ps); the pinned
   sequence is the model's timing contract, so a rewrite of the thread
   machinery must reproduce it exactly. *)
let test_fpc_contention_trace () =
  let open Nfp.Fpc in
  let e = Sim.Engine.create () in
  let fpc = create e ~params ~threads:3 ~name:"t" () in
  let next_token = ref 0 and log = ref [] in
  set_tracer fpc
    (Some
       {
         tr_submit =
           (fun () ->
             incr next_token;
             !next_token);
         tr_run =
           (fun ~slot ~token k ->
             log := (token, slot, Sim.Engine.now e) :: !log;
             k ());
       });
  let items =
    [
      [ Compute 100; Mem Nfp.Memory.Emem; Compute 20 ];
      [ Compute 40 ];
      [ Compute 60; Mem Nfp.Memory.Cls; Sleep 3_000 ];
      [ Compute 0; Compute 10 ];
      [ Sleep 50_000; Compute 5 ];
      [ Compute 70; Mem Nfp.Memory.Imem ];
      [];
    ]
  in
  List.iteri
    (fun i phases ->
      submit fpc phases (fun () ->
          if i = 1 then submit fpc [ Compute 30; Compute 30 ] ignore))
    items;
  Sim.Engine.schedule e 400_000 (fun () ->
      submit fpc [ Compute 15 ] ignore;
      submit fpc [ Mem Nfp.Memory.Ctm; Compute 15 ] ignore);
  Sim.Engine.run e;
  Alcotest.(check (list (triple int int int)))
    "(token, slot, completion ps)"
    [
      (2, 1, 175_000); (4, 1, 262_500); (5, 1, 318_750); (3, 2, 378_000);
      (7, 2, 378_000); (8, 2, 481_250); (9, 2, 500_000); (10, 2, 643_750);
      (6, 1, 718_750); (1, 0, 775_000);
    ]
    (List.rev !log);
  check_int "items" 10 (items_completed fpc);
  check_int "all threads idle" 0 (in_flight fpc)

(* Running an item on an idle FPC allocates nothing: no work record,
   no per-phase closure, no queued (cycles, k) pair. *)
let test_fpc_compute_allocation () =
  let e = Sim.Engine.create () in
  let fpc = Nfp.Fpc.create e ~params ~threads:8 ~name:"t" () in
  let phases = [ Nfp.Fpc.Compute 10 ] in
  (* Each completion submits the next item, which an idle thread picks
     up: one engine run drives the whole chain. *)
  let completed = ref 0 and target = ref 0 in
  let rec k () =
    incr completed;
    if !completed < !target then Nfp.Fpc.submit fpc phases k
  in
  let run n =
    target := !completed + n;
    Nfp.Fpc.submit fpc phases k;
    Sim.Engine.run e
  in
  run 100;
  let n = 10_000 in
  let before = Gc.minor_words () in
  run n;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "items" (n + 100) !completed;
  if words > 0.1 then
    Alcotest.failf "%.2f minor words per [Compute c] item (bound 0.1)" words

(* CAM lookups, hits and misses alike, allocate nothing. *)
let test_cam_find_allocation () =
  let c = Nfp.Cam.create ~entries:16 in
  for k = 0 to 15 do
    ignore (Nfp.Cam.insert c k ())
  done;
  let hits = ref 0 in
  let lookups n =
    for i = 1 to n do
      match Nfp.Cam.find c (i mod 20) with Some () -> incr hits | None -> ()
    done
  in
  lookups 100;
  let n = 10_000 in
  let before = Gc.minor_words () in
  lookups n;
  let words = (Gc.minor_words () -. before) /. float_of_int n in
  check_int "hits" (Nfp.Cam.hits c) !hits;
  check_bool "misses too" true (Nfp.Cam.misses c > 0);
  if words > 0.1 then
    Alcotest.failf "%.2f minor words per CAM lookup (bound 0.1)" words

let test_phase_cost () =
  check_int "cost sums"
    ((100 * 1250) + (params.Nfp.Params.emem_cycles * 1250) + 7)
    (Nfp.Fpc.phase_cost params
       [ Compute 100; Mem Nfp.Memory.Emem; Sleep 7 ])

(* --- DMA ---------------------------------------------------------------------- *)

let test_dma_base_latency () =
  let e = Sim.Engine.create () in
  let dma = Nfp.Dma.create e ~params in
  let t = ref 0 in
  Nfp.Dma.issue dma ~queue:0 ~bytes:0 (fun () -> t := Sim.Engine.now e);
  Sim.Engine.run e;
  check_int "zero-byte pays base latency" params.Nfp.Params.pcie_base_latency
    !t

let test_dma_serialisation () =
  let e = Sim.Engine.create () in
  let dma = Nfp.Dma.create e ~params in
  let times = ref [] in
  for _ = 1 to 3 do
    Nfp.Dma.issue dma ~queue:0 ~bytes:65_000 (fun () ->
        times := Sim.Engine.now e :: !times)
  done;
  Sim.Engine.run e;
  let times = List.rev !times in
  (* 65 kB at 52 Gb/s = 10 us serialisation; transfers share the link. *)
  let ser = int_of_float (65_000. *. 8. *. 1000. /. 52.) in
  check_int "first" (ser + params.Nfp.Params.pcie_base_latency)
    (List.nth times 0);
  check_int "second queued behind first"
    ((2 * ser) + params.Nfp.Params.pcie_base_latency)
    (List.nth times 1)

let test_dma_inflight_cap () =
  let e = Sim.Engine.create () in
  let dma = Nfp.Dma.create e ~params in
  for _ = 1 to 200 do
    Nfp.Dma.issue dma ~queue:0 ~bytes:64 ignore
  done;
  check_int "128 in flight" 128 (Nfp.Dma.in_flight dma);
  check_int "72 waiting" 72 (Nfp.Dma.queued dma);
  Sim.Engine.run e;
  check_int "all complete" 200 (Nfp.Dma.transfers_completed dma)

let test_dma_queues_independent_windows () =
  let e = Sim.Engine.create () in
  let dma = Nfp.Dma.create e ~params in
  for _ = 1 to 128 do
    Nfp.Dma.issue dma ~queue:0 ~bytes:64 ignore
  done;
  Nfp.Dma.issue dma ~queue:1 ~bytes:64 ignore;
  check_int "queue 1 admits immediately" 129 (Nfp.Dma.in_flight dma);
  Sim.Engine.run e

(* --- Ring ----------------------------------------------------------------------- *)

let test_ring_capacity_and_drops () =
  let r = Nfp.Ring.create ~capacity:2 ~name:"r" () in
  check_bool "push1" true (Nfp.Ring.push r 1);
  check_bool "push2" true (Nfp.Ring.push r 2);
  check_bool "push3 rejected" false (Nfp.Ring.push r 3);
  check_int "drops" 1 (Nfp.Ring.drops r);
  Alcotest.(check (option int)) "fifo" (Some 1) (Nfp.Ring.pop r);
  check_bool "room again" true (Nfp.Ring.push r 4);
  check_int "max occupancy" 2 (Nfp.Ring.max_occupancy r)

let test_ring_notify () =
  let r = Nfp.Ring.create ~name:"r" () in
  let notified = ref 0 in
  Nfp.Ring.set_notify r (fun () -> incr notified);
  ignore (Nfp.Ring.push r ());
  ignore (Nfp.Ring.push r ());
  check_int "notified per push" 2 !notified

(* --- Lookup engine ----------------------------------------------------------------- *)

let test_lookup_collisions () =
  let l = Nfp.Lookup.create ~equal:String.equal in
  (* Two tuples colliding on the same hash resolve by full compare. *)
  Nfp.Lookup.add l ~hash:42 "flow-a" 1;
  Nfp.Lookup.add l ~hash:42 "flow-b" 2;
  Alcotest.(check (option int)) "a" (Some 1)
    (Nfp.Lookup.lookup l ~hash:42 "flow-a");
  Alcotest.(check (option int)) "b" (Some 2)
    (Nfp.Lookup.lookup l ~hash:42 "flow-b");
  check_int "entries" 2 (Nfp.Lookup.entries l);
  Nfp.Lookup.remove l ~hash:42 "flow-a";
  Alcotest.(check (option int)) "a gone" None
    (Nfp.Lookup.lookup l ~hash:42 "flow-a");
  Alcotest.(check (option int)) "b kept" (Some 2)
    (Nfp.Lookup.lookup l ~hash:42 "flow-b")

let test_lookup_readd () =
  let l = Nfp.Lookup.create ~equal:Int.equal in
  Nfp.Lookup.add l ~hash:1 100 1;
  Nfp.Lookup.add l ~hash:1 100 2;
  check_int "no duplicates" 1 (Nfp.Lookup.entries l);
  Alcotest.(check (option int)) "latest" (Some 2)
    (Nfp.Lookup.lookup l ~hash:1 100)

(* --- Connection table --------------------------------------------------- *)

(* Random insert/replace/remove churn over a key range that outgrows the
   initial capacity several times, against a Hashtbl oracle. *)
let test_conn_table_matches_hashtbl () =
  let module T = Nfp.Conn_table in
  let rng = Random.State.make [| 0xc0ffee |] in
  let t = T.create () and oracle = Hashtbl.create 16 in
  let range = ref 8 in
  for op = 0 to 20_000 do
    if op mod 2_000 = 0 then range := 2 * !range;
    let key = Random.State.int rng !range in
    (match Random.State.int rng 3 with
    | 0 ->
        T.remove t key;
        Hashtbl.remove oracle key
    | _ ->
        T.replace t key op;
        Hashtbl.replace oracle key op);
    let probe = Random.State.int rng (!range + 8) - 4 in
    if T.find_opt t probe <> Hashtbl.find_opt oracle probe then
      Alcotest.failf "op %d: key %d disagrees with the oracle" op probe;
    if T.length t <> Hashtbl.length oracle then
      Alcotest.failf "op %d: length %d, oracle %d" op (T.length t)
        (Hashtbl.length oracle)
  done;
  for key = -2 to !range + 2 do
    Alcotest.(check (option int))
      (Printf.sprintf "key %d" key)
      (Hashtbl.find_opt oracle key) (T.find_opt t key);
    check_bool "mem" (Hashtbl.mem oracle key) (T.mem t key)
  done;
  T.remove t (-1);
  Alcotest.check_raises "negative key"
    (Invalid_argument "Conn_table.replace: negative key") (fun () ->
      T.replace t (-1) 0)

let suite =
  [
    Alcotest.test_case "cam LRU eviction" `Quick test_cam_lru_eviction;
    Alcotest.test_case "cam counters" `Quick test_cam_hit_miss_counters;
    Alcotest.test_case "cam overwrite" `Quick test_cam_overwrite;
    QCheck_alcotest.to_alcotest prop_cam_never_exceeds_capacity;
    Alcotest.test_case "direct cache conflicts" `Quick
      test_direct_cache_conflicts;
    Alcotest.test_case "direct cache invalidate" `Quick
      test_direct_cache_invalidate;
    Alcotest.test_case "lru eviction order" `Quick test_lru_eviction_order;
    QCheck_alcotest.to_alcotest prop_lru_working_set;
    Alcotest.test_case "fpc compute serialises" `Quick
      test_fpc_compute_serialises;
    Alcotest.test_case "fpc threads hide memory latency" `Quick
      test_fpc_threads_hide_memory_latency;
    Alcotest.test_case "fpc queues work" `Quick
      test_fpc_queue_when_threads_busy;
    Alcotest.test_case "fpc utilization" `Quick test_fpc_utilization;
    Alcotest.test_case "fpc contention trace" `Quick
      test_fpc_contention_trace;
    Alcotest.test_case "fpc compute item allocation" `Quick
      test_fpc_compute_allocation;
    Alcotest.test_case "cam lookup allocation" `Quick
      test_cam_find_allocation;
    Alcotest.test_case "phase cost accounting" `Quick test_phase_cost;
    Alcotest.test_case "dma base latency" `Quick test_dma_base_latency;
    Alcotest.test_case "dma link serialisation" `Quick
      test_dma_serialisation;
    Alcotest.test_case "dma in-flight cap" `Quick test_dma_inflight_cap;
    Alcotest.test_case "dma queue windows" `Quick
      test_dma_queues_independent_windows;
    Alcotest.test_case "ring capacity and drops" `Quick
      test_ring_capacity_and_drops;
    Alcotest.test_case "ring notify" `Quick test_ring_notify;
    Alcotest.test_case "lookup collision chains" `Quick
      test_lookup_collisions;
    Alcotest.test_case "lookup re-add" `Quick test_lookup_readd;
    Alcotest.test_case "conn table matches a Hashtbl" `Quick
      test_conn_table_matches_hashtbl;
  ]
