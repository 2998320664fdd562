(* Interactive memory-transfer optimization walkthrough (§III-B, Figure 2).

   Starting from a JACOBI port that leaves all memory management to the
   OpenACC default scheme (plus a per-iteration download, as in the paper's
   Listing 3), the instrumented runtime reports redundant transfers, the
   scripted programmer applies the tool's suggestions, and the loop repeats
   until a profiled run is clean.

     dune exec examples/memory_optimization.exe
*)

let source = Suite.Jacobi.bench.Suite.Bench_def.source

let () =
  let prog = Minic.Parser.parse_string source in

  (* Step 1: profile the unoptimized program with coherence checking. *)
  let tp = Codegen.Checkgen.instrument (Openarc_core.Compiler.compile source) in
  let outcome = Accrt.Interp.run ~coherence:true tp in
  let reports = Accrt.Interp.reports outcome in
  Fmt.pr "Profiled run produced %d transfer reports; first five:@."
    (List.length reports);
  List.iteri
    (fun i r -> if i < 5 then Fmt.pr "  %a@." Accrt.Coherence.pp_report r)
    reports;

  (* Step 2: the tool turns reports into suggestions. *)
  Fmt.pr "@.Suggestions:@.";
  List.iter
    (fun s -> Fmt.pr "  - %a@." Openarc_core.Suggest.pp s)
    (Openarc_core.Suggest.analyze outcome);

  (* Step 3: iterate suggestions-edit-rerun to a fixed point (Figure 2). *)
  Fmt.pr "@.Interactive optimization session:@.";
  let result =
    Openarc_core.Session.optimize ~outputs:[ "a"; "b"; "resid" ] prog
  in
  List.iter (fun l -> Fmt.pr "  %s@." l)
    (Openarc_core.Session.log_lines result);

  let n0, b0 = Openarc_core.Session.transfer_stats prog in
  let n1, b1 =
    Openarc_core.Session.transfer_stats result.Openarc_core.Session.final
  in
  Fmt.pr
    "@.Converged in %d iteration(s) (%d wrong suggestions along the \
     way).@.Transfers: %d (%d bytes)  ->  %d (%d bytes)@."
    result.Openarc_core.Session.iterations
    result.Openarc_core.Session.incorrect_iterations n0 b0 n1 b1;

  Fmt.pr "@.Final program:@.%s@."
    (Minic.Pretty.program_to_string result.Openarc_core.Session.final)
