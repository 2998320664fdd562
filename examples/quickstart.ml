(* Quickstart: compile an OpenACC program, run it on the simulated GPU,
   and look at what the compiler generated.

     dune exec examples/quickstart.exe
*)

let source =
  {|
int main() {
  int n = 1024;
  float x[n];
  float y[n];
  float alpha = 2.5;
  float dot = 0.0;
  for (int i = 0; i < n; i++) {
    x[i] = float(i) * 0.001;
    y[i] = 1.0;
  }
  /* saxpy on the GPU, data managed by an explicit region */
  #pragma acc data copyin(x) copy(y)
  {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) {
      y[i] = alpha * x[i] + y[i];
    }
  }
  /* dot product with a reduction */
  #pragma acc parallel loop reduction(+:dot)
  for (int i = 0; i < n; i++) {
    dot = dot + x[i] * y[i];
  }
  return 0;
}
|}

let () =
  (* 1. Compile: parse, validate OpenACC usage, type check, translate. *)
  let tp = Openarc_core.Compiler.compile source in
  Fmt.pr "Compiled %d kernels:@." (Array.length tp.Codegen.Tprog.kernels);
  Array.iter
    (fun k ->
      Fmt.pr "  %s  reads=%s writes=%s@." k.Codegen.Tprog.k_name
        (Analysis.Varset.to_string k.Codegen.Tprog.k_arrays_read)
        (Analysis.Varset.to_string k.Codegen.Tprog.k_arrays_written))
    tp.Codegen.Tprog.kernels;

  (* 2. Execute on the simulated accelerator. *)
  let outcome = Accrt.Interp.run ~coherence:false tp in
  Fmt.pr "@.Simulated execution:@.%a@." Gpusim.Metrics.pp
    (Accrt.Interp.metrics outcome);
  Fmt.pr "@.dot = %g@."
    (Accrt.Value.to_float (Accrt.Interp.host_scalar outcome "dot"));

  (* 3. Cross-check against the sequential reference execution. *)
  let reference = Accrt.Eval.run_reference tp.Codegen.Tprog.source in
  Fmt.pr "reference dot = %g@."
    (Accrt.Value.to_float
       (Accrt.Value.get_scalar reference.Accrt.Eval.env "dot"));

  (* 4. Inspect the CUDA-style translation (what OpenARC would emit). *)
  Fmt.pr "@.--- generated code (excerpt) ---@.";
  let cuda = Codegen.Cuda.to_string tp in
  String.split_on_char '\n' cuda
  |> List.filteri (fun i _ -> i < 18)
  |> List.iter print_endline
