(* PR6 churn sweep and CI regression gate (Fig. 14 flavor).

   A guarded FlexTOE server carries an established KV workload while
   an open-loop attacker SYN-floods the service port at 0/1/3/10x a
   50k pps base rate. Reported per multiplier: established-flow
   goodput, retention vs the flood-free run, and the FlexGuard
   counters that explain where the flood went (stateless cookies,
   shed SYNs) plus the bound that must never break: zero
   established-flow segments shed.

   [run] prints the sweep table (harness mode); [gate] additionally
   writes the BENCH_pr6.json record and checks it (CI mode, via
   bench/bench_gate.exe):

   - flood-free goodput within 5% of the checked-in baseline
     (bench/BENCH_baseline_pr6.json);
   - retention at 10x at or above the baseline's retention_floor;
   - established_shed identically 0 at every multiplier and in one
     more 10x run against a 2-frame CP queue, where the shed policy
     must engage (the sweep's floods never fill the 64-frame queue);
   - per-stage peak queue depths bounded (cp peak <= g_cp_queue). *)

open Common
module R = Bench_record

let kv_port = 11211
let base_rate_pps = 50_000
let multipliers = [ 0; 1; 3; 10 ]

type outcome = {
  c_mult : int;
  c_mops : float;
  c_syns : int;  (* flood SYNs actually injected *)
  c_cookies : int;
  c_shed : int;  (* shed_admission + shed_queue + shed_paused *)
  c_shed_queue : int;  (* SYNs shed at a full CP queue *)
  c_est_shed : int;  (* must be 0 *)
  c_cp_peak : int;
  c_cp_bound : int;  (* g_cp_queue *)
  c_sched_peak : int;
}

let guarded_config ?(cp_queue = Flextoe.Config.guard_default.g_cp_queue) () =
  { Flextoe.Config.default with
    Flextoe.Config.guard =
      { Flextoe.Config.guard_default with g_cp_queue = cp_queue } }

let flex_node n = Option.get n.flex

(* Sanitized runs (FLEXSAN=1) double as the churn-weather race check:
   any FlexSan report at any flood multiplier fails the harness. *)
let san_gate ~mult nodes =
  let dirty =
    List.filter_map
      (fun n ->
        match Flextoe.Datapath.san (Flextoe.datapath (flex_node n)) with
        | Some s when Flextoe.San.report_count s > 0 -> Some s
        | _ -> None)
      nodes
  in
  if dirty <> [] then begin
    Printf.printf "FLEXSAN: flood x%d produced sanitizer reports:\n" mult;
    List.iter
      (fun s ->
        List.iter
          (fun r -> Printf.printf "  %s\n" (Flextoe.San.report_to_string r))
          (Flextoe.San.reports s))
      dirty;
    exit 1
  end

let measure_mult ?cp_queue mult =
  let w = mk_world ~seed:42L () in
  let config = guarded_config ?cp_queue () in
  let server = mk_node w FlexTOE ~app_cores:2 ~config ip_server in
  let client = mk_node w FlexTOE ~app_cores:2 ~config (ip_client 0) in
  let stats = Host.Rpc.Stats.create w.engine in
  ignore
    (Host.App_kv.server ~endpoint:server.ep ~port:kv_port ~app_cycles:300 ());
  Host.App_kv.client ~endpoint:client.ep ~engine:w.engine
    ~server_ip:ip_server ~server_port:kv_port ~conns:8 ~pipeline:4
    ~key_bytes:32 ~value_bytes:32 ~set_ratio:0.5 ~stats ();
  let flood =
    if mult = 0 then None
    else
      Some
        (Netsim.Faults.Churn.syn_flood w.engine w.fabric ~src_ip:0x0A0000EE
           ~dst_ip:ip_server ~dst_port:kv_port
           ~rate_pps:(base_rate_pps * mult) ())
  in
  measure w ~warmup:(Sim.Time.ms 5) ~window:(Sim.Time.ms 20) [ stats ];
  Option.iter Netsim.Faults.Churn.stop flood;
  san_gate ~mult [ server; client ];
  let sdp = Flextoe.datapath (flex_node server) in
  let g =
    match Flextoe.Datapath.guard sdp with
    | Some g -> g
    | None -> failwith "churn sweep requires the guard armed"
  in
  let c name = Flextoe.Guard.counter g name in
  {
    c_mult = mult;
    c_mops = Host.Rpc.Stats.mops stats;
    c_syns = (match flood with Some f -> Netsim.Faults.Churn.sent f | None -> 0);
    c_cookies = c "cookie_sent";
    c_shed = c "shed_admission" + c "shed_queue" + c "shed_paused";
    c_shed_queue = c "shed_queue";
    c_est_shed = Flextoe.Guard.established_shed g;
    c_cp_peak = Flextoe.Guard.peak_depth g ~queue:"cp";
    c_cp_bound = (Flextoe.Guard.config g).Flextoe.Config.g_cp_queue;
    c_sched_peak = Flextoe.Datapath.sched_peak_ready sdp;
  }

let sweep () = List.map measure_mult multipliers

let print_table results =
  let base =
    match results with o :: _ -> o.c_mops | [] -> nan
  in
  Printf.printf "%-8s %10s %10s %8s %8s %8s %9s %8s %10s\n" "flood" "mOps"
    "retention" "syns" "cookies" "shed" "est-shed" "cp-peak" "sched-peak";
  List.iter
    (fun o ->
      Printf.printf "%-8s %10.3f %9.1f%% %8d %8d %8d %9d %5d/%-2d %10d\n"
        (Printf.sprintf "x%d%s" o.c_mult
           (if o.c_cp_bound = Flextoe.Config.guard_default.g_cp_queue then ""
            else Printf.sprintf "/cp%d" o.c_cp_bound))
        o.c_mops
        (100. *. o.c_mops /. base)
        o.c_syns o.c_cookies o.c_shed o.c_est_shed o.c_cp_peak o.c_cp_bound
        o.c_sched_peak)
    results;
  base

let run () =
  header "Churn: established goodput under SYN flood (FlexGuard armed)";
  let results = sweep () in
  let base = print_table results in
  let at m = List.find (fun o -> o.c_mult = m) results in
  log_result ~experiment:"churn"
    "established goodput under 10x SYN flood: %.0f%% of flood-free (floor \
     80%%); %d flood SYNs answered with %d cookies, %d shed, 0 established \
     segments shed"
    (100. *. (at 10).c_mops /. base)
    (at 10).c_syns (at 10).c_cookies (at 10).c_shed;
  note "the attacker is open-loop: cookies cost no backlog state;";
  note "shed policy drops newest SYNs first, never established-flow segments."

let gate ~baseline ~out () =
  let results = sweep () in
  (* A 10x flood against a 2-frame CP queue engages the shed policy, so
     the established-shed check has drops to count. Control frames
     other than pure SYNs always pass, so its peak may exceed its bound
     and it takes no cp-queue bound check. *)
  let saturated = measure_mult ~cp_queue:2 10 in
  let base = print_table (results @ [ saturated ]) in
  let per name f = R.series name (fun o -> o.c_mult) f results in
  let est_shed =
    List.fold_left (fun a o -> a + o.c_est_shed) 0 (saturated :: results)
  in
  R.gate ~baseline ~out
    (R.make ~experiment:"churn_sweep_pr6"
       ~workload:
         "kv 32x32, 8 conns, syn flood 0/1/3/10x 50kpps and 10x against a \
          2-frame cp queue, seed 42"
       ~workers:1
       (* The floor is the baseline's: a baseline re-pinned from this
          record keeps it. *)
       ((("retention_floor", 0.80) :: per "mops" (fun o -> o.c_mops))
       @ per "retention" (fun o -> o.c_mops /. base)
       @ [
           ("established_shed", float_of_int est_shed);
           ("saturated.shed_queue", float_of_int saturated.c_shed_queue);
         ]
       @ per "cp_peak" (fun o -> float_of_int o.c_cp_peak)
       @ per "cp_bound" (fun o -> float_of_int o.c_cp_bound)))
    ([
       R.check "flood-free" (Cur "mops.0") (Ge 0.95) (Base "mops.0");
       R.check "retention@10x" (Cur "retention.10") (Ge 1.)
         (Base "retention_floor");
       R.check "shed engaged" (Cur "saturated.shed_queue") Gt (Num 0.);
       R.check "established-shed" (Cur "established_shed") Le (Num 0.);
     ]
    @ List.map
        (fun o ->
          let name = Printf.sprintf "cp-queue bound x%d" o.c_mult in
          let key k = Printf.sprintf "%s.%d" k o.c_mult in
          if o.c_cp_bound > 0 then
            R.check name (Cur (key "cp_peak")) Le (Cur (key "cp_bound"))
          else R.skip name "no g_cp_queue bound")
        results)
