(* Server crash and recovery, the heaviest suite, on its own (see
   split_run.ml). *)
let () = Split_run.run "oodb-srvfault" [ ("srvfault", Test_srvfault.suite) ]
