let () =
  Alcotest.run "psbox"
    [
      ("engine", Test_engine.suite);
      ("hw", Test_hw.suite);
      ("cfs", Test_cfs.suite);
      ("smp", Test_smp.suite);
      ("accel_driver", Test_accel_driver.suite);
      ("net_sched", Test_net_sched.suite);
      ("meter", Test_meter.suite);
      ("psbox", Test_psbox.suite);
      ("vstate", Test_vstate.suite);
      ("accounting", Test_accounting.suite);
      ("sidechannel", Test_sidechannel.suite);
      ("workloads", Test_workloads.suite);
      ("integration", Test_integration.suite);
      ("extensions", Test_extensions.suite);
      ("random", Test_random.suite);
      ("misc", Test_misc.suite);
      ("system", Test_system.suite);
      ("budget", Test_budget.suite);
      ("telemetry", Test_telemetry.suite);
      ("audit", Test_audit.suite);
      ("fleet", Test_fleet.suite);
      ("model", Test_model.suite);
      ("health", Test_health.suite);
      ("history", Test_history.suite);
      ("alloc", Test_alloc.suite);
    ]
