let () =
  Alcotest.run "oodb"
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
      ("shard", Test_shard.suite);
      ("cluster", Test_cluster.suite);
      ("srvfault", Test_srvfault.suite);
      ("oracle", Test_oracle.suite);
      ("harness", Test_harness.suite);
      ("telemetry", Test_telemetry.suite);
      ("report", Test_report.suite);
    ]
