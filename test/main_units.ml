(* The kernel, resource, protocol and fault suites (see split_run.ml). *)
let () =
  Split_run.run "oodb-units"
    [
      ("rng", Test_rng.suite);
      ("stats", Test_stats.suite);
      ("engine", Test_engine.suite);
      ("equeue", Test_equeue.suite);
      ("proc", Test_proc.suite);
      ("resources", Test_resources.suite);
      ("storage", Test_storage.suite);
      ("locking", Test_locking.suite);
      ("copy-scale", Test_copy_scale.suite);
      ("workload", Test_workload.suite);
      ("core-units", Test_core_units.suite);
      ("kernel-units", Test_kernel_units.suite);
      ("protocols", Test_protocols.suite);
      ("extensions", Test_extensions.suite);
      ("fuzz", Test_fuzz.suite);
      ("faults", Test_faults.suite);
      ("runner", Test_runner.suite);
    ]
