(* FlexPar shard: golden worlds bit-identical across domain counts,
   conservative-channel properties, partitioned-fabric determinism,
   domain-safe Scope/Trace shard merges. *)
let () =
  Printf.printf "par: workers_used %d\n%!" (Test_par.workers_used ());
  Alcotest.run "flextoe-par" [ ("par", Test_par.suite) ]
