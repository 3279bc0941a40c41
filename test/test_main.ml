let () =
  (* Figure 5/E6 LoC are counted from the source tree, which must exist. *)
  Cio_tcb.Tcb.set_repo_root (Helpers.repo_root ());
  Alcotest.run "cio"
    [
      ("util", Test_util.suite);
      ("mem", Test_mem.suite);
      ("crypto", Test_crypto.suite);
      ("frame", Test_frame.suite);
      ("netsim", Test_netsim.suite);
      ("tcpip", Test_tcpip.suite);
      ("virtio", Test_virtio.suite);
      ("cionet", Test_cionet.suite);
      ("compartment", Test_compartment.suite);
      ("tls", Test_tls.suite);
      ("core", Test_core.suite);
      ("attack", Test_attack.suite);
      ("data", Test_data.suite);
      ("storage", Test_storage.suite);
      ("dda", Test_dda.suite);
      ("observe-tcb", Test_observe_tcb.suite);
      ("telemetry", Test_telemetry.suite);
      ("packed", Test_packed.suite);
      ("fault", Test_fault.suite);
      ("lint", Test_lint.suite);
      ("extensions", Test_extensions.suite);
      ("integration", Test_integration.suite);
      ("switch", Test_switch.suite);
      ("shapes", Test_shapes.suite);
      ("overload", Test_overload.suite);
    ]
