let () =
  Alcotest.run "ddb"
    (Test_logic.suites @ Test_sat.suites @ Test_qbf.suites @ Test_db.suites @ Test_semantics.suites @ Test_workload.suites @ Test_extra.suites @ Test_extensions.suites @ Test_laws.suites @ Test_engine.suites @ Test_differential.suites @ Test_frag.suites @ Test_parallel.suites @ Test_obs.suites @ Test_budget.suites @ Test_golden.suites)
