(* Sharding, clustering, the oracle, the harness and the reports (see
   split_run.ml). *)
let () =
  Split_run.run "oodb-system"
    [
      ("shard", Test_shard.suite);
      ("cluster", Test_cluster.suite);
      ("oracle", Test_oracle.suite);
      ("harness", Test_harness.suite);
      ("telemetry", Test_telemetry.suite);
      ("report", Test_report.suite);
    ]
