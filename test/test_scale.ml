(* FlexScale tests (PR10, DESIGN.md §17): sharded flow-group
   pipelines and the per-flow state caches they index.

   Four groups:

   - Steering: shard assignment is a pure function of the connection
     4-tuple and the static configuration — recomputation always
     agrees (no mid-life migration is even expressible), and 1M
     synthetic tuples spread within 2x of the ideal per-shard count.

   - Sharded worlds: a healthy sharded run has zero cross-shard
     connection-state accesses and a clean FlexSan; the [mis_steer]
     sabotage (a steering bug indexing a neighbor shard's caches) is
     caught by both the steering self-check counter and FlexSan.

   - Eviction oracles: the CAM (Cam), EMEM SRAM cache (Lru) and CLS
     (Direct_cache) models replayed against naive reference
     implementations on seeded random op streams — hit/miss results,
     eviction victims and counters must agree exactly.

   - Pinning / pressure: an Established flow's pinned state is never
     evicted while any cold (handshake / TIME_WAIT) entry exists; a
     fully-pinned cache still evicts but loudly (pinned_evictions);
     FlexGuard's TIME_WAIT table recycles its oldest entry under
     capacity pressure. *)

module D = Flextoe.Datapath
module FG = Flextoe.Flow_group
module San = Flextoe.San

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let ip_a = 0x0A000001
let ip_b = 0x0A000002

(* Synthetic 4-tuples with the same shape the scale sweep installs:
   one local endpoint, remote ip/port swept across a realistic
   range. *)
let flow_of i =
  {
    Tcp.Flow.local_ip = ip_a;
    local_port = 7;
    remote_ip = 0x0B000001 + (i / 60_000);
    remote_port = 1_024 + (i mod 60_000);
  }

(* --- Steering --------------------------------------------------------- *)

let test_steering_pure () =
  let groups = 64 in
  List.iter
    (fun shards ->
      for i = 0 to 9_999 do
        let flow = flow_of i in
        let s1 = FG.shard_of_flow flow ~groups ~shards in
        (* Interleave unrelated steering queries: a pure function
           cannot care. *)
        ignore (FG.shard_of_flow (flow_of (i + 1)) ~groups ~shards);
        let s2 = FG.shard_of_flow flow ~groups ~shards in
        if s1 <> s2 then
          Alcotest.failf "steering not pure: flow %d gave %d then %d" i s1
            s2;
        if s1 < 0 || s1 >= shards then
          Alcotest.failf "shard %d out of range at shards=%d" s1 shards;
        (* The shard is the flow group mod shards: steering composes
           with the existing flow-group hash, it does not invent a
           second hash that could disagree with the pinned group. *)
        check_int "shard = group mod shards"
          (FG.group_of_flow flow ~groups mod shards)
          s1
      done)
    [ 1; 2; 4; 8 ]

let test_steering_validates () =
  let flow = flow_of 0 in
  let expect_invalid name f =
    match f () with
    | _ -> Alcotest.failf "%s: Invalid_argument expected" name
    | exception Invalid_argument _ -> ()
  in
  expect_invalid "zero shards" (fun () ->
      FG.shard_of_flow flow ~groups:4 ~shards:0);
  expect_invalid "zero groups" (fun () ->
      FG.shard_of_flow flow ~groups:0 ~shards:4)

let test_steering_no_migration () =
  (* The assignment recorded at install time still holds after any
     amount of other steering activity — the property that lets the
     sharding proof treat "conn -> shard" as a constant map. *)
  let groups = 64 and shards = 4 in
  let n = 10_000 in
  let pinned =
    Array.init n (fun i -> FG.shard_of_flow (flow_of i) ~groups ~shards)
  in
  for i = 0 to (100 * n) - 1 do
    ignore (FG.shard_of_flow (flow_of (i mod n)) ~groups ~shards)
  done;
  for i = 0 to n - 1 do
    check_int
      (Printf.sprintf "flow %d still on its shard" i)
      pinned.(i)
      (FG.shard_of_flow (flow_of i) ~groups ~shards)
  done

let test_occupancy_within_2x () =
  let groups = 64 in
  let n = 1_048_576 in
  List.iter
    (fun shards ->
      let counts = Array.make shards 0 in
      for i = 0 to n - 1 do
        let s = FG.shard_of_flow (flow_of i) ~groups ~shards in
        counts.(s) <- counts.(s) + 1
      done;
      let ideal = n / shards in
      Array.iteri
        (fun s c ->
          if c > 2 * ideal then
            Alcotest.failf
              "shard %d holds %d of %d flows at shards=%d (> 2x ideal %d)"
              s c n shards ideal;
          if c = 0 then
            Alcotest.failf "shard %d empty at shards=%d" s shards)
        counts)
    [ 2; 4; 8 ]

(* --- Sharded worlds --------------------------------------------------- *)

let run_sharded ?(mis_steer = false) ~shards () =
  let engine = Sim.Engine.create ~seed:42L () in
  let fabric = Netsim.Fabric.create engine () in
  let config =
    {
      Flextoe.Config.default with
      Flextoe.Config.san = true;
      guard = Flextoe.Config.guard_none;
      scale = Flextoe.Config.scale_of shards;
    }
  in
  let pipeline =
    if mis_steer then Some (Flextoe.Defect.pipeline Flextoe.Defect.Mis_steer)
    else None
  in
  let a =
    Flextoe.create_node engine ~fabric ~config ?pipeline ~ip:ip_a ()
  in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:ip_b () in
  let stats = Host.Rpc.Stats.create engine in
  Host.Rpc.server ~endpoint:(Flextoe.endpoint a) ~port:7 ~app_cycles:100
    ~handler:Host.Rpc.echo_handler ();
  Host.Rpc.Stats.start_measuring stats;
  ignore
    (Host.Rpc.closed_loop_client ~endpoint:(Flextoe.endpoint b) ~engine
       ~server_ip:ip_a ~server_port:7 ~conns:8 ~pipeline:4 ~req_bytes:256
       ~stats
       ~on_response:(fun ~conn:_ _ -> ())
       ());
  Sim.Engine.run ~until:(Sim.Time.ms 5) engine;
  (Flextoe.datapath a, Host.Rpc.Stats.ops stats)

let test_sharded_run_healthy () =
  let dp, ops = run_sharded ~shards:4 () in
  check_bool "made progress" true (ops > 200);
  check_int "4 shard groups" 4 (D.shards dp);
  check_int "zero cross-shard conn-state accesses" 0
    (D.cross_shard_accesses dp);
  check_int "no forced evictions of Established state" 0
    (D.pinned_evictions dp);
  (match D.san dp with
  | Some s -> check_int "FlexSan clean on the sharded pipeline" 0
                (San.report_count s)
  | None -> Alcotest.fail "san enabled but absent");
  check_int "EMEM accounts 108 B of state per flow" 108
    (D.emem_bytes_per_flow dp)

let test_mis_steer_caught () =
  let dp, ops = run_sharded ~mis_steer:true ~shards:4 () in
  check_bool "sabotaged world still ran" true (ops >= 0);
  check_bool "steering self-check trips" true
    (D.cross_shard_accesses dp > 0);
  match D.san dp with
  | Some s ->
      check_bool "FlexSan reports the undeclared shard-steer access" true
        (San.report_count s > 0)
  | None -> Alcotest.fail "san enabled but absent"

(* --- Eviction oracles ------------------------------------------------- *)

(* Reference model shared by the CAM and Lru oracles: an MRU-first
   association list with pin marks. Victim selection walks LRU-to-MRU
   for the first unpinned entry, falling back to the true LRU (forced,
   counted) — the documented semantics of both structures. *)
module Ref_lru = struct
  type 'a t = {
    cap : int;
    mutable entries : (int * ('a * bool ref)) list;  (* MRU first *)
    mutable hits : int;
    mutable misses : int;
    mutable evictions : int;
    mutable pinned_evictions : int;
    mutable invalidations : int;
  }

  let create cap =
    { cap; entries = []; hits = 0; misses = 0; evictions = 0;
      pinned_evictions = 0; invalidations = 0 }

  let to_front t key e =
    t.entries <- (key, e) :: List.remove_assoc key t.entries

  let find t key =
    match List.assoc_opt key t.entries with
    | Some ((v, _) as e) ->
        t.hits <- t.hits + 1;
        to_front t key e;
        Some v
    | None ->
        t.misses <- t.misses + 1;
        None

  (* The LRU unpinned entry, else the LRU entry outright (forced). *)
  let victim t =
    let rev = List.rev t.entries in
    match List.find_opt (fun (_, (_, p)) -> not !p) rev with
    | Some (k, _) -> (k, false)
    | None -> (fst (List.hd rev), true)

  let evict t =
    let k, forced = victim t in
    let v, _ = List.assoc k t.entries in
    t.entries <- List.remove_assoc k t.entries;
    t.evictions <- t.evictions + 1;
    if forced then t.pinned_evictions <- t.pinned_evictions + 1;
    (k, v)

  let insert ~pin t key v =
    match List.assoc_opt key t.entries with
    | Some (_, p) ->
        if pin then p := true;
        (* Overwrite refreshes recency but never un-pins. *)
        to_front t key (v, p);
        None
    | None ->
        let ev =
          if List.length t.entries >= t.cap then Some (evict t) else None
        in
        t.entries <- (key, (v, ref pin)) :: t.entries;
        ev

  (* Lru.access: find + install-on-miss in one op, no values. *)
  let access ~pin t key =
    match List.assoc_opt key t.entries with
    | Some (_, p) ->
        t.hits <- t.hits + 1;
        if pin then p := true;
        to_front t key ((), p);
        true
    | None ->
        t.misses <- t.misses + 1;
        if List.length t.entries >= t.cap then ignore (evict t);
        t.entries <- (key, ((), ref pin)) :: t.entries;
        false

  let remove t key =
    if List.mem_assoc key t.entries then begin
      t.entries <- List.remove_assoc key t.entries;
      t.invalidations <- t.invalidations + 1
    end

  let mem t key = List.mem_assoc key t.entries
  let length t = List.length t.entries
end

let oracle_ops = 5_000
let oracle_cap = 16

let test_cam_matches_oracle () =
  let rng = Random.State.make [| 0x5ca1e |] in
  let cam = Nfp.Cam.create ~entries:oracle_cap in
  let oracle = Ref_lru.create oracle_cap in
  for op = 0 to oracle_ops - 1 do
    let key = Random.State.int rng (3 * oracle_cap) in
    match Random.State.int rng 7 with
    | 0 | 1 | 2 ->
        let got = Nfp.Cam.find cam key in
        let want = Ref_lru.find oracle key in
        if got <> want then
          Alcotest.failf "op %d: find %d disagrees with oracle" op key
    | 3 | 4 | 5 ->
        let pin = Random.State.bool rng in
        let got = Nfp.Cam.insert ~pin cam key op in
        let want = Ref_lru.insert ~pin oracle key op in
        if got <> want then
          Alcotest.failf
            "op %d: insert %d evicted %s, oracle evicted %s" op key
            (match got with
            | Some (k, _) -> string_of_int k
            | None -> "nothing")
            (match want with
            | Some (k, _) -> string_of_int k
            | None -> "nothing")
    | _ ->
        Nfp.Cam.remove cam key;
        Ref_lru.remove oracle key
  done;
  check_int "length" (Ref_lru.length oracle) (Nfp.Cam.length cam);
  for key = 0 to (3 * oracle_cap) - 1 do
    check_bool
      (Printf.sprintf "membership of %d" key)
      (Ref_lru.mem oracle key) (Nfp.Cam.mem cam key)
  done;
  check_int "hits" oracle.Ref_lru.hits (Nfp.Cam.hits cam);
  check_int "misses" oracle.Ref_lru.misses (Nfp.Cam.misses cam);
  check_int "evictions" oracle.Ref_lru.evictions (Nfp.Cam.evictions cam);
  check_int "pinned evictions" oracle.Ref_lru.pinned_evictions
    (Nfp.Cam.pinned_evictions cam);
  check_int "invalidations" oracle.Ref_lru.invalidations
    (Nfp.Cam.invalidations cam)

let test_lru_matches_oracle () =
  let rng = Random.State.make [| 0xe3e3 |] in
  let lru = Nfp.Lru.create ~entries:oracle_cap in
  let oracle = Ref_lru.create oracle_cap in
  for op = 0 to oracle_ops - 1 do
    let key = Random.State.int rng (3 * oracle_cap) in
    match Random.State.int rng 8 with
    | 6 ->
        Nfp.Lru.remove lru key;
        Ref_lru.remove oracle key
    | 7 ->
        Nfp.Lru.unpin lru key;
        (match List.assoc_opt key oracle.Ref_lru.entries with
        | Some (_, p) -> p := false
        | None -> ())
    | _ ->
        let pin = Random.State.int rng 4 = 0 in
        let got = Nfp.Lru.access ~pin lru key in
        let want = Ref_lru.access ~pin oracle key in
        if got <> want then
          Alcotest.failf "op %d: access %d hit=%b, oracle hit=%b" op key
            got want
  done;
  check_int "length" (Ref_lru.length oracle) (Nfp.Lru.length lru);
  for key = 0 to (3 * oracle_cap) - 1 do
    check_bool
      (Printf.sprintf "membership of %d" key)
      (Ref_lru.mem oracle key) (Nfp.Lru.mem lru key)
  done;
  check_int "hits" oracle.Ref_lru.hits (Nfp.Lru.hits lru);
  check_int "misses" oracle.Ref_lru.misses (Nfp.Lru.misses lru);
  check_int "evictions" oracle.Ref_lru.evictions (Nfp.Lru.evictions lru);
  check_int "pinned evictions" oracle.Ref_lru.pinned_evictions
    (Nfp.Lru.pinned_evictions lru)

let test_cls_matches_oracle () =
  (* Direct-mapped: the oracle is the textbook array of slots. *)
  let cap = 8 in
  let rng = Random.State.make [| 0xc15 |] in
  let cls = Nfp.Direct_cache.create ~entries:cap in
  let slots = Array.make cap (-1) in
  let hits = ref 0 and misses = ref 0 and conflicts = ref 0 in
  for op = 0 to oracle_ops - 1 do
    let key = Random.State.int rng (4 * cap) in
    let i = key mod cap in
    let want =
      if slots.(i) = key then begin
        incr hits;
        true
      end
      else begin
        incr misses;
        if slots.(i) >= 0 then incr conflicts;
        slots.(i) <- key;
        false
      end
    in
    let got = Nfp.Direct_cache.access cls key in
    if got <> want then
      Alcotest.failf "op %d: access %d hit=%b, oracle hit=%b" op key got
        want
  done;
  check_int "hits" !hits (Nfp.Direct_cache.hits cls);
  check_int "misses" !misses (Nfp.Direct_cache.misses cls);
  check_int "conflict evictions" !conflicts
    (Nfp.Direct_cache.conflict_evictions cls);
  for key = 0 to (4 * cap) - 1 do
    check_bool
      (Printf.sprintf "probe %d" key)
      (slots.(key mod cap) = key)
      (Nfp.Direct_cache.probe cls key)
  done

(* --- Pinning under pressure ------------------------------------------- *)

let test_established_survives_cold_churn () =
  (* The regression the scale design hinges on: Established (pinned)
     state is never the eviction victim while any cold (handshake /
     TIME_WAIT) entry remains — churn pressure lands on cold state
     only. *)
  let cap = 8 in
  let lru = Nfp.Lru.create ~entries:cap in
  let established = [ 0; 1; 2; 3 ] in
  List.iter (fun k -> ignore (Nfp.Lru.access ~pin:true lru k)) established;
  (* 1000 cold flows churn through the remaining capacity. *)
  for k = 100 to 1_099 do
    ignore (Nfp.Lru.access lru k)
  done;
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "established %d still resident" k)
        true (Nfp.Lru.mem lru k))
    established;
  check_int "no forced evictions while cold entries exist" 0
    (Nfp.Lru.pinned_evictions lru);
  (* Same property on the CAM. *)
  let cam = Nfp.Cam.create ~entries:cap in
  List.iter (fun k -> ignore (Nfp.Cam.insert ~pin:true cam k ())) established;
  for k = 100 to 1_099 do
    ignore (Nfp.Cam.insert cam k ())
  done;
  List.iter
    (fun k ->
      check_bool
        (Printf.sprintf "CAM established %d still resident" k)
        true (Nfp.Cam.mem cam k))
    established;
  check_int "CAM: no forced evictions while cold entries exist" 0
    (Nfp.Cam.pinned_evictions cam);
  (* Unpinning (the flow left Established) makes the entry ordinary
     prey again. *)
  Nfp.Lru.unpin lru 0;
  for k = 2_000 to 2_007 do
    ignore (Nfp.Lru.access lru k)
  done;
  check_bool "unpinned state is evictable again" false (Nfp.Lru.mem lru 0)

let test_fully_pinned_evicts_loudly () =
  let cap = 4 in
  let lru = Nfp.Lru.create ~entries:cap in
  for k = 0 to cap - 1 do
    ignore (Nfp.Lru.access ~pin:true lru k)
  done;
  (* Every slot pinned: the model must not wedge — it evicts the true
     LRU but counts it. *)
  check_bool "miss on a full pinned cache installs" false
    (Nfp.Lru.access ~pin:true lru 99);
  check_int "forced eviction counted" 1 (Nfp.Lru.pinned_evictions lru);
  check_bool "the LRU pinned key was taken" false (Nfp.Lru.mem lru 0);
  check_bool "newest key resident" true (Nfp.Lru.mem lru 99)

let test_guard_tw_pressure_recycles_oldest () =
  let guard =
    Flextoe.Guard.create ~g:Flextoe.Config.guard_default ~secret:7 ()
  in
  let cap = Flextoe.Guard.time_wait_max in
  let tw_flow i = flow_of i in
  for i = 0 to cap + 1 do
    Flextoe.Guard.tw_add guard
      ~now:(Sim.Time.us (i + 1))
      ~flow:(tw_flow i)
      ~snd_nxt:(Tcp.Seq32.of_int 100)
      ~rcv_nxt:(Tcp.Seq32.of_int 200)
  done;
  check_int "table capped" cap (Flextoe.Guard.tw_length guard);
  check_int "two oldest recycled under pressure" 2
    (Flextoe.Guard.counter guard "tw_recycled_pressure");
  (* Precisely the two oldest entries made room. *)
  for i = 0 to 1 do
    check_bool
      (Printf.sprintf "entry %d recycled" i)
      true
      (Flextoe.Guard.tw_find guard ~flow:(tw_flow i) = None)
  done;
  check_bool "every later entry resident" true
    (List.for_all
       (fun i -> Flextoe.Guard.tw_find guard ~flow:(tw_flow i) <> None)
       (List.init cap (fun i -> i + 2)))

(* --- Per-shard admission ---------------------------------------------- *)

(* With a connection limit of 4 over two shards, each shard may hold
   ceil(4 / 2) = 2 connections. Connects issued one at a time from the
   client: the third flow steered to the first flow's shard is shed
   while the global cap still has room, and the other shard keeps
   admitting. *)
let test_shard_admission_slice () =
  let engine = Sim.Engine.create ~seed:42L () in
  let fabric = Netsim.Fabric.create engine () in
  let config =
    {
      Flextoe.Config.default with
      Flextoe.Config.guard = Flextoe.Config.guard_default;
      scale = Flextoe.Config.scale_of 2;
    }
  in
  let a = Flextoe.create_node engine ~fabric ~config ~ip:ip_a () in
  let b = Flextoe.create_node engine ~fabric ~config ~ip:ip_b () in
  let cp = Flextoe.control a in
  Flextoe.Control_plane.set_connection_limit cp (Some 4);
  (Flextoe.endpoint a).Host.Api.listen ~port:7 ~on_accept:(fun _ -> ());
  (* The client numbers its local ports from 40000 in connect order;
     steering is a pure function of the server-side 4-tuple. *)
  let shard_of_port port =
    FG.shard_of_config config
      (Tcp.Flow.v ~local_ip:ip_a ~local_port:7 ~remote_ip:ip_b
         ~remote_port:port)
  in
  let hot = shard_of_port 40_000 in
  let rec connect_until port ~hot_left ~cold_left =
    if hot_left > 0 || cold_left > 0 then begin
      let is_hot = shard_of_port port = hot in
      (Flextoe.endpoint b).Host.Api.connect ~remote_ip:ip_a ~remote_port:7
        ~on_connected:(fun _ -> ());
      Sim.Engine.run ~until:(Sim.Engine.now engine + Sim.Time.us 300) engine;
      if is_hot then
        connect_until (port + 1) ~hot_left:(hot_left - 1) ~cold_left
      else
        connect_until (port + 1) ~hot_left
          ~cold_left:(Int.max 0 (cold_left - 1))
    end
  in
  connect_until 40_000 ~hot_left:3 ~cold_left:1;
  let g =
    match D.guard (Flextoe.datapath a) with
    | Some g -> g
    | None -> Alcotest.fail "guard not armed"
  in
  let per_shard = Flextoe.Control_plane.shard_conns cp in
  check_int "hot shard held at its slice" 2 per_shard.(hot);
  check_int "cold shard still admits" 1 per_shard.(1 - hot);
  check_int "global cap not reached" 3 (Flextoe.Control_plane.active_flows cp);
  check_bool "third hot-shard flow shed by its slice" true
    (Flextoe.Guard.counter g "shed_admission_shard" >= 1);
  check_int "no global admission shed" 0
    (Flextoe.Guard.counter g "shed_admission")

let suite =
  [
    Alcotest.test_case "steering is a pure function of the 4-tuple" `Quick
      test_steering_pure;
    Alcotest.test_case "steering validates its configuration" `Quick
      test_steering_validates;
    Alcotest.test_case "no mid-life shard migration" `Quick
      test_steering_no_migration;
    Alcotest.test_case "1M-tuple occupancy within 2x of ideal" `Quick
      test_occupancy_within_2x;
    Alcotest.test_case "healthy sharded run: no cross-shard access" `Quick
      test_sharded_run_healthy;
    Alcotest.test_case "mis-steer sabotage caught" `Quick
      test_mis_steer_caught;
    Alcotest.test_case "CAM replay matches naive oracle" `Quick
      test_cam_matches_oracle;
    Alcotest.test_case "EMEM LRU replay matches naive oracle" `Quick
      test_lru_matches_oracle;
    Alcotest.test_case "CLS replay matches naive oracle" `Quick
      test_cls_matches_oracle;
    Alcotest.test_case "Established state survives cold churn" `Quick
      test_established_survives_cold_churn;
    Alcotest.test_case "fully-pinned cache evicts loudly" `Quick
      test_fully_pinned_evicts_loudly;
    Alcotest.test_case "TIME_WAIT pressure recycles the oldest" `Quick
      test_guard_tw_pressure_recycles_oldest;
    Alcotest.test_case "per-shard admission slice" `Quick
      test_shard_admission_slice;
  ]
