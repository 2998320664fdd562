let () =
  Alcotest.run "openarc"
    [ ("lexer", Test_lexer.tests);
      ("parser", Test_parser.tests);
      ("pretty", Test_pretty.tests);
      ("typecheck", Test_typecheck.tests);
      ("validate", Test_validate.tests);
      ("analysis", Test_analysis.tests);
      ("gpusim", Test_gpusim.tests);
      ("eval", Test_eval.tests);
      ("translate", Test_translate.tests);
      ("interp", Test_interp.tests);
      ("kernel_exec", Test_kernel_exec.tests);
      ("coherence", Test_coherence.tests);
      ("tprog_analyses", Test_tprog_analyses.tests);
      ("checkgen", Test_checkgen.tests);
      ("intervals", Test_intervals.tests);
      ("verify", Test_verify.tests);
      ("session", Test_session.tests);
      ("edit", Test_edit.tests);
      ("multidim", Test_multidim.tests);
      ("inline", Test_inline.tests);
      ("ids", Test_ids.tests);
      ("features", Test_features.tests);
      ("suite", Test_suite.tests);
      ("engine_diff", Test_engine_diff.tests);
      ("fault_plan", Test_fault_plan.tests);
      ("resilience", Test_resilience.tests);
      ("lint", Test_lint.tests);
      ("symeq", Test_symeq.tests);
      ("obs", Test_obs.tests);
      ("ledger", Test_ledger.tests);
      ("diff", Test_diff.tests);
      ("pjson", Test_pjson.tests);
      ("saturate", Test_saturate.tests);
      ("cli", Test_cli.tests);
      ("bench_cli", Test_bench_cli.tests);
      ("wall_cli", Test_wall_cli.tests) ]
