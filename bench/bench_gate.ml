(* CI entry point for the bench regression gates.

   Usage: bench_gate [GATE] [BASELINE.json] [OUT.json]
   GATE is "batch" (PR5 batching sweep), "churn" (PR6 churn sweep),
   "par" (PR9 parallel speedup; needs no baseline), "scale" (PR10
   FlexScale connection sweep) or "all" (default when no arguments
   are given). Baseline/output default to
   bench/BENCH_baseline_pr{5,6,10}.json and
   bench/BENCH_pr{5,6,9,10}.json per gate.

   Every gate measures one Bench_record, writes it to OUT and runs its
   checks over keys of that record and of the baseline record, one
   OK/FAIL/SKIP line each. A missing or unparseable baseline or a
   missing key FAILs. Exit 0 when no check of a requested gate FAILs,
   1 otherwise. *)

let gates =
  [
    ( "batch",
      ( Batch_sweep.gate,
        "bench/BENCH_baseline_pr5.json",
        "bench/BENCH_pr5.json" ) );
    ( "churn",
      (Churn.gate, "bench/BENCH_baseline_pr6.json", "bench/BENCH_pr6.json") );
    ("par", (Batch_sweep.par_gate, "", "bench/BENCH_pr9.json"));
    ( "scale",
      ( Scale_sweep.gate,
        "bench/BENCH_baseline_pr10.json",
        "bench/BENCH_pr10.json" ) );
  ]

let run ?baseline ?out name =
  match List.assoc_opt name gates with
  | Some (gate, b, o) ->
      gate
        ~baseline:(Option.value baseline ~default:b)
        ~out:(Option.value out ~default:o)
        ()
  | None ->
      Printf.eprintf
        "bench_gate: unknown gate %S (batch|churn|par|scale|all)\n" name;
      exit 2

let () =
  let ok =
    match List.tl (Array.to_list Sys.argv) with
    | [] | [ "all" ] ->
        List.fold_left (fun ok (name, _) -> run name && ok) true gates
    | [ name ] -> run name
    | [ name; baseline ] -> run ~baseline name
    | name :: baseline :: out :: _ -> run ~baseline ~out name
  in
  exit (if ok then 0 else 1)
