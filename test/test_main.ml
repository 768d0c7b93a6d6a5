(* Alcotest entry point aggregating all suites. *)

let () =
  Alcotest.run "taichi"
    [
      ("engine", Test_engine.suite);
      ("hw", Test_hw.suite);
      ("core_state", Test_core_state.suite);
      ("os", Test_os.suite);
      ("accel", Test_accel.suite);
      ("dataplane", Test_dataplane.suite);
      ("metrics", Test_metrics.suite);
      ("observability", Test_observability.suite);
      ("controlplane", Test_controlplane.suite);
      ("core", Test_core.suite);
      ("tenant", Test_tenant.suite);
      ("overload", Test_overload.suite);
      ("faults", Test_faults.suite);
      ("fleet", Test_fleet.suite);
      ("workloads", Test_workloads.suite);
      ("platform", Test_platform.suite);
      ("sweep", Test_sweep.suite);
      ("extensions", Test_extensions.suite);
      ("hotpath", Test_hotpath.suite);
    ]
