(* CI entry point for the bench regression gates.

   Usage: bench_gate [GATE] [BASELINE.json] [OUT.json]
   GATE is "batch" (PR5 batching sweep), "churn" (PR6 churn sweep),
   "par" (PR9 parallel speedup; needs no baseline), "scale" (PR10
   FlexScale connection sweep) or "all" (default when no arguments
   are given). Baseline/output default to
   bench/BENCH_baseline_pr{5,6,10}.json and
   bench/BENCH_pr{5,6,9,10}.json per gate. Exit 0 when every
   requested gate holds, 1 otherwise. *)

let batch_defaults = ("bench/BENCH_baseline_pr5.json", "bench/BENCH_pr5.json")
let churn_defaults = ("bench/BENCH_baseline_pr6.json", "bench/BENCH_pr6.json")
let par_defaults = ("", "bench/BENCH_pr9.json")

let scale_defaults =
  ("bench/BENCH_baseline_pr10.json", "bench/BENCH_pr10.json")

let run_gate name ~baseline ~out =
  let gate =
    match name with
    | "batch" -> Batch_sweep.gate
    | "churn" -> Churn.gate
    | "par" -> Batch_sweep.par_gate
    | "scale" -> Scale_sweep.gate
    | _ ->
        Printf.eprintf
          "bench_gate: unknown gate %S (batch|churn|par|scale|all)\n" name;
        exit 2
  in
  gate ~baseline ~out ()

let defaults_for name =
  match name with
  | "churn" -> churn_defaults
  | "par" -> par_defaults
  | "scale" -> scale_defaults
  | _ -> batch_defaults

let run_with_defaults name =
  let baseline, out = defaults_for name in
  run_gate name ~baseline ~out

let () =
  let argv = Array.to_list Sys.argv in
  let ok =
    match argv with
    | [ _ ] | [ _; "all" ] ->
        let a = run_with_defaults "batch" in
        let b = run_with_defaults "churn" in
        let c = run_with_defaults "par" in
        let d = run_with_defaults "scale" in
        a && b && c && d
    | [ _; name ] -> run_with_defaults name
    | [ _; name; baseline ] ->
        run_gate name ~baseline ~out:(snd (defaults_for name))
    | _ :: name :: baseline :: out :: _ -> run_gate name ~baseline ~out
    | [] -> false
  in
  if ok then exit 0 else exit 1
