(* FlexPar shard: golden worlds bit-identical across domain counts,
   the worker pool's lifecycle and failure handling. *)
let () =
  Printf.printf "par: workers_used %d\n%!" (Test_par.workers_used ());
  Alcotest.run "flextoe-par" [ ("par", Test_par.suite) ]
