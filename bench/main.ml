(* The experiment harness: regenerates every table and figure of the
   paper's evaluation (plus substrate microbenchmarks).

   Usage:
     dune exec bench/main.exe            # everything
     dune exec bench/main.exe -- fig9 table3 ...   # a subset
   Experiment ids: table1..table4, fig9..fig16, micro and the others
   listed below. An unknown id exits with status 2 before anything
   runs. *)

let experiments =
  [
    ("table1", Table1.run);
    ("fig9", Fig9.run);
    ("fig10", Fig10.run);
    ("fig11", Fig11.run);
    ("fig12", Fig12.run);
    ("fig13", Fig13.run);
    ("fig14", (fun () -> Fig14.run ()));
    ("fig15", Fig15.run);
    ("fig16", Fig16.run);
    ("table2", Table2.run);
    ("table3", Table3.run);
    ("table4", Table4.run);
    ("batch", Batch_sweep.run);
    ("par", Batch_sweep.run_par);
    ("prove", Prove_bench.run);
    ("ablations", Ablations.run);
    ("chaos", Chaos.run);
    ("churn", Churn.run);
    ("scale", Scale_sweep.run);
    ("micro", Microbench.run);
  ]

let () =
  let requested =
    match Array.to_list Sys.argv with
    | _ :: (_ :: _ as names) -> names
    | _ -> List.map fst experiments
  in
  (* Every name is checked before any experiment runs: a misspelled
     one fails the whole command instead of being skipped. *)
  let unknown =
    List.filter (fun n -> not (List.mem_assoc n experiments)) requested
  in
  if unknown <> [] then begin
    List.iter (Printf.eprintf "unknown experiment %S\n") unknown;
    Printf.eprintf "known: %s\n"
      (String.concat " " (List.map fst experiments));
    exit 2
  end;
  print_endline "FlexTOE reproduction: experiment harness";
  print_endline
    "(shape reproduction on a simulated NFP-4000; see EXPERIMENTS.md)";
  let t0 = Unix.gettimeofday () in
  List.iter
    (fun name ->
      let t = Unix.gettimeofday () in
      (List.assoc name experiments) ();
      Printf.printf "  [%s done in %.1fs]\n%!" name
        (Unix.gettimeofday () -. t))
    requested;
  Printf.printf "\nTotal: %.1fs\n" (Unix.gettimeofday () -. t0);
  if !Common.result_log <> [] then begin
    print_endline "\n=== Summary (paper vs measured) ===";
    List.iter
      (fun (exp, line) -> Printf.printf "%-8s %s\n" exp line)
      (List.rev !Common.result_log)
  end
