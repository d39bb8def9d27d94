(* PR7 FlexProve overhead report.

   The layer-0 graph passes run once per [Datapath.create]; steady
   state does not pay for them. This measures the cost of one full
   [Prove.check_graph] over the extracted builtin graph, amortized
   over many iterations — the one-time price every node construction
   pays — and writes it to BENCH_pr7.json. Steady-state kv throughput
   with the checks in the create path is the batch gate's to bound
   (bench_gate batch): FlexProve costs wall time only, so simulated
   mOps cannot see it. *)

open Common

let check_micros ~iters =
  let config = Flextoe.Config.default in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to iters do
    match
      Flextoe.Prove.check_graph (Flextoe.Graph_ir.builtin ~config ())
    with
    | Ok _ -> ()
    | Error _ -> failwith "builtin graph rejected"
  done;
  1e6 *. (Unix.gettimeofday () -. t0) /. float_of_int iters

let out_path () =
  if Sys.file_exists "bench" && Sys.is_directory "bench" then
    "bench/BENCH_pr7.json"
  else "BENCH_pr7.json"

let run () =
  header "FlexProve overhead: create-time graph checks";
  let micros = check_micros ~iters:1000 in
  Printf.printf "  check_graph: %.1f us per full run (3 passes, once per \
                 node create)\n"
    micros;
  let out = out_path () in
  Bench_record.write out
    (Bench_record.make ~experiment:"prove_overhead_pr7"
       ~workload:"Prove.check_graph over the builtin graph, 1000 runs"
       ~workers:1
       [ ("check_micros", micros) ]);
  Printf.printf "  wrote %s\n" out;
  log_result ~experiment:"prove" "create-time checks %.1f us once per node"
    micros
