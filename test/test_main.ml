(** Entry point aggregating all test suites; run with [dune runtest]. *)

let () =
  Alcotest.run "progmp"
    (Test_lexer.suite @ Test_parser.suite @ Test_typecheck.suite
   @ Test_pretty.suite @ Test_pretty.semantic_suite @ Test_interpreter.suite @ Test_differential.suite @ Test_compiler.suite @ Test_compiler.regalloc_suite @ Test_compiler.bopt_suite @ Test_compiler.middle_end_suite @ Test_pqueue.suite
   @ Test_runtime.suite @ Test_runtime.profiler_suite @ Test_runtime.perf_suite @ Test_runtime.alloc_suite @ Test_sim_core.suite @ Test_tcp.suite @ Test_tcp.estimator_suite
   @ Test_meta.suite @ Test_receiver.suite @ Test_schedulers.suite @ Test_schedulers.design_space_suite @ Test_schedulers.probing_suite @ Test_schedulers.edge_suite @ Test_schedulers.priority_suite @ Test_apps.suite @ Test_optimize.suite @ Test_multiconn.suite @ Test_multiconn.fleet_suite @ Test_multiconn.cc_suite @ Test_fuzz.suite @ Test_multiconn.unordered_suite @ Test_topology.suite @ Test_sim_invariants.suite
   @ Test_sim_invariants.failure_suite @ Test_sim_invariants.fault_suite @ Test_sim_invariants.hygiene_suite
   @ Test_faults.suite @ Test_integration.suite @ Test_obs.suite
   @ Test_eventq.suite @ Test_exp.suite @ Test_arena.arena_suite
   @ Test_arena.shard_suite @ Test_recycle.recycle_suite @ Test_reads.suite)
