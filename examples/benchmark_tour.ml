(* Tour of the bundled benchmark suite: for every one of the paper's twelve
   OpenACC benchmarks, run the default-scheme port and the manually
   optimized port on the simulator and compare time and traffic — a
   miniature of Figure 1 — then let the interactive optimizer loose on the
   unoptimized port and report how close it gets to the manual tuning.

     dune exec examples/benchmark_tour.exe
*)

let run_program prog =
  Accrt.Interp.metrics
    (Accrt.Interp.run ~coherence:false
       (Openarc_core.Compiler.compile_program prog))

let run src = run_program (Minic.Parser.parse_string src)

let () =
  Fmt.pr "%-10s %14s %14s %14s %9s@." "Benchmark" "naive bytes" "manual bytes"
    "tool bytes" "sessions";
  Fmt.pr "%s@." (String.make 68 '-');
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let m_naive = run b.source in
      let m_manual = run b.optimized in
      let session =
        Openarc_core.Session.optimize ~outputs:b.outputs
          (Minic.Parser.parse_string b.source)
      in
      let m_tool = run_program session.Openarc_core.Session.final in
      Fmt.pr "%-10s %14d %14d %14d %6d it@." b.name
        (Gpusim.Metrics.total_bytes m_naive)
        (Gpusim.Metrics.total_bytes m_manual)
        (Gpusim.Metrics.total_bytes m_tool)
        session.Openarc_core.Session.iterations)
    Suite.Registry.all;
  Fmt.pr "%s@." (String.make 68 '-');
  Fmt.pr
    "The tool column shows traffic after the interactive optimization \
     session; on most benchmarks it matches (or beats) the manual port.@."
