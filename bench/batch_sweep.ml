(* PR5 batching sweep and CI regression gate.

   Fixed-seed memcached-style workload on FlexTOE at uniform batching
   degrees 1/2/4/8. Two verdicts:

   - batch=1 throughput must stay within 5% of the checked-in
     baseline (bench/BENCH_baseline_pr5.json) — the batching machinery
     may not tax the unbatched pipeline;
   - batch=8 must beat batch=1 — coalescing has to actually pay.

   [run] prints the sweep table (harness mode); [gate] additionally
   writes the BENCH_pr5.json record and checks it (CI mode, via
   bench/bench_gate.exe). *)

open Common
module R = Bench_record

let degrees = [ 1; 2; 4; 8 ]

(* Build one batch-degree world on [w] (its own fabric, server and two
   clients) and return the stats the caller will open a measurement
   window on. Shared between the sequential sweep and the parallel
   speedup gate, which runs all four degree worlds as cluster LPs. *)
let build_degree w b =
  let config =
    {
      Flextoe.Config.default with
      Flextoe.Config.batch = b;
    }
  in
  let server = mk_node w FlexTOE ~app_cores:2 ~config ip_server in
  let stats = Host.Rpc.Stats.create w.engine in
  ignore
    (Host.App_kv.server ~endpoint:server.ep ~port:11211 ~app_cycles:890 ());
  for i = 0 to 1 do
    let client = mk_node w FlexTOE ~app_cores:4 ~config (ip_client i) in
    Host.App_kv.client ~endpoint:client.ep ~engine:w.engine
      ~server_ip:ip_server ~server_port:11211 ~conns:16 ~pipeline:8
      ~key_bytes:32 ~value_bytes:32 ~set_ratio:0.1 ~stats ()
  done;
  stats

let measure_degree b =
  let w = mk_world ~seed:42L () in
  let stats = build_degree w b in
  measure w ~warmup:(Sim.Time.ms 8) ~window:(Sim.Time.ms 15) [ stats ];
  Host.Rpc.Stats.mops stats

let sweep () = List.map (fun b -> (b, measure_degree b)) degrees

let print_table results =
  columns (List.map (fun (b, _) -> Printf.sprintf "b=%d" b) results);
  row_of_floats "FlexTOE mOps" (List.map snd results)

let run () =
  header "Batch sweep: throughput vs uniform batching degree";
  let results = sweep () in
  print_table results;
  let at b = List.assoc b results in
  log_result ~experiment:"batch"
    "batch=8 %.2f mOps = %.2fx batch=1 (doorbell+GRO+notify coalescing)"
    (at 8)
    (at 8 /. at 1);
  note "degree 1 is bit-identical to the unbatched seed pipeline;";
  note "gains come from amortized doorbells, GRO merges, ARX coalescing."

(* --- Parallel speedup ----------------------------------------------------- *)

(* The four batch-degree worlds are independent (disjoint fabrics), so
   they make an embarrassingly-parallel cluster: one LP per degree.
   Running them at domains=1 vs domains=8 gives a wall-clock speedup
   that is pure engine overhead + scheduling — and because each LP is
   seeded and isolated, the measured mOps must be BIT-IDENTICAL at
   every domain count. Both are gated: determinism always, and the
   parallelism of the domains=8 run against a threshold scaled to the
   workers actually available and to how evenly the work splits across
   the LPs. *)

module Cl = Sim.Engine.Cluster

let par_warmup = Sim.Time.ms 8
let par_horizon = Sim.Time.ms 23 (* warmup + the 15 ms window *)

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* One cluster run: per-degree mOps, wall seconds, the process CPU
   seconds its workers spent, the worker count, and each LP's events
   (deterministic: the same at every domain count). *)
let par_sweep ~domains =
  let cl = Cl.create ~seed:9L ~domains () in
  let stats =
    List.map
      (fun b ->
        let lp = Cl.add_lp ~name:(Printf.sprintf "batch%d" b) ~seed:42L cl in
        let w = { engine = lp; fabric = Netsim.Fabric.create lp () } in
        let st = build_degree w b in
        (* [measure]'s between-runs start_measuring is a solo-engine
           idiom; under the cluster the window opens as an event. *)
        Sim.Engine.schedule_at lp par_warmup (fun () ->
            Host.Rpc.Stats.start_measuring st);
        (b, st))
      degrees
  in
  let c0 = cpu_s () and t0 = Unix.gettimeofday () in
  Cl.run ~until:par_horizon cl;
  let wall = Unix.gettimeofday () -. t0 and cpu = cpu_s () -. c0 in
  ( List.map (fun (b, st) -> (b, Host.Rpc.Stats.mops st)) stats,
    wall,
    cpu,
    Cl.workers_used cl,
    List.map Sim.Engine.events_processed (Cl.lps cl) )

(* One degree world alone on a solo engine for the cluster's horizon:
   the CPU seconds its LP costs. *)
let solo_cpu b =
  let w = mk_world ~seed:42L () in
  ignore (build_degree w b);
  let c0 = cpu_s () in
  Sim.Engine.run ~until:par_horizon w.engine;
  cpu_s () -. c0

type par = {
  results : (int * float) list;  (* mOps per degree *)
  wall1 : float;
  walln : float;
  speedup : float;  (* wall1 / walln *)
  parallelism : float;
  workers : int;
  cores : int;
  deterministic : bool;
  event_shares : (int * float) list;  (* each LP's share of the events *)
  cpu_shares : (int * float) list;  (* ... of the LPs' solo CPU time *)
  reach : float;  (* the events' [Bench_record.lp_reach] *)
  threshold : float;
}

(* The two sides alternate for three rounds, and each keeps its
   fastest sweep. The gated figure is the parallelism of the fastest
   domains=8 sweep: the CPU time its workers spent over its wall
   time. A busy neighbour slows the sweeps of both sides and moves
   their wall ratio, but a worker it slows spends more CPU time as
   well as more wall time; an engine that serializes its LPs on one
   worker reads 1.0. *)
let par_rounds = 3

let par_results () =
  let sweeps =
    List.init par_rounds (fun _ ->
        (* The [let] runs domains=1 first: a pair's components
           evaluate right to left. *)
        let one = par_sweep ~domains:1 in
        (one, par_sweep ~domains:8))
  in
  let (r1, _, _, _, events), (_, _, _, workers, _) = List.hd sweeps in
  (* Every sweep, at either domain count, must give the same mOps and
     the same events per LP. *)
  let deterministic =
    List.for_all
      (fun ((a, _, _, _, e), (b, _, _, _, e')) ->
        a = r1 && b = r1 && e = events && e' = events)
      sweeps
  in
  let fastest side =
    List.map side sweeps
    |> List.sort (fun (_, w, _, _, _) (_, w', _, _, _) -> Float.compare w w')
    |> List.hd
  in
  let _, wall1, _, _, _ = fastest fst and _, walln, cpun, _, _ = fastest snd in
  let cores = Domain.recommended_domain_count () in
  (* With one LP per worker a run is no shorter than its largest LP,
     so the ideal parallelism is the smaller of the workers and the
     LPs' total work over the largest's. The gate holds the run to
     75% of that, capped at 3x; the work is each LP's events, which
     track its CPU time (both shares are recorded). *)
  let work = List.map float_of_int events in
  let shares l =
    let total = List.fold_left ( +. ) 0. l in
    List.map2 (fun b x -> (b, x /. Float.max total 1e-9)) degrees l
  in
  {
    results = r1;
    wall1;
    walln;
    speedup = wall1 /. Float.max walln 1e-9;
    parallelism = cpun /. Float.max walln 1e-9;
    workers;
    cores;
    deterministic;
    event_shares = shares work;
    cpu_shares = shares (List.map solo_cpu degrees);
    reach = R.lp_reach work;
    threshold = R.par_threshold ~workers ~work;
  }

let print_par p =
  columns (List.map (fun (b, _) -> Printf.sprintf "b=%d" b) p.results);
  row_of_floats "mOps (par)" (List.map snd p.results);
  Printf.printf
    "  domains=1 %.2fs, domains=8 %.2fs (best of %d) -> %.2fx; parallelism \
     %.2fx (threshold %.2fx; %d worker(s), %d core(s))\n"
    p.wall1 p.walln par_rounds p.speedup p.parallelism p.threshold p.workers
    p.cores;
  let pct l =
    String.concat "/"
      (List.map (fun (_, x) -> Printf.sprintf "%.0f" (100. *. x)) l)
  in
  Printf.printf
    "  LP shares (b=1/2/4/8): events %s%%, solo CPU %s%% -> reach %.2fx\n"
    (pct p.event_shares) (pct p.cpu_shares) p.reach

let run_par () =
  header "FlexPar speedup: 4 batch-degree worlds as conservative LPs";
  let p = par_results () in
  print_par p;
  log_result ~experiment:"par"
    "domains=8 runs the 4-LP cluster %.2fx faster than domains=1 \
     (bit-identical mOps: %b)"
    p.speedup p.deterministic;
  note "each LP is an isolated seeded world: results are bit-identical";
  note "across domain counts; only wall-clock changes."

let par_gate ~baseline ~out () =
  header "FlexPar speedup gate";
  let p = par_results () in
  print_par p;
  R.gate ~baseline ~out
    (R.make ~experiment:"par_speedup_pr9"
       ~workload:"4 kv batch-degree worlds as cluster LPs, seed 42"
       ~workers:p.workers
       (R.series "mops" fst snd p.results
       @ [
           ("wall_s.domains_1", p.wall1);
           ("wall_s.domains_8", p.walln);
           ("speedup", p.speedup);
           ("parallelism", p.parallelism);
           ("lp_reach", p.reach);
           ("threshold", p.threshold);
           ("deterministic", if p.deterministic then 1. else 0.);
         ]
       @ R.series "event_share" fst snd p.event_shares
       @ R.series "cpu_share" fst snd p.cpu_shares))
    [
      R.check "determinism" (Cur "deterministic") Eq (Num 1.);
      (* With one worker both runs are the same sequential loop: their
         ratio is noise and cache warmth, not a parallel speedup. *)
      (if p.workers > 1 then
         R.check "parallelism" (Cur "parallelism") (Ge 1.) (Cur "threshold")
       else R.skip "parallelism" "not measured (1 worker)");
    ]

let gate ~baseline ~out () =
  let results = sweep () in
  print_table results;
  R.gate ~baseline ~out
    (R.make ~experiment:"batch_sweep_pr5"
       ~workload:"kv 32x32, 2 clients, seed 42" ~workers:1
       (R.series "mops" fst snd results))
    [
      R.check "batch=1" (Cur "mops.1") (Ge 0.95) (Base "mops.1");
      R.check "batch=8" (Cur "mops.8") Gt (Cur "mops.1");
    ]
