(** Facade over the whole OpenARC pipeline: parse → validate → type check →
    translate → (optionally instrument) → run.  This is the public
    entry point the examples and the CLI use. *)

type compiled = {
  program : Minic.Ast.program;
  env : Minic.Typecheck.env;
  tprog : Codegen.Tprog.t;  (** uninstrumented translation *)
}

(* Compile-phase spans use the trace's default constant clock, so their
   presence never perturbs byte-reproducible outputs. *)
let phase obs name f =
  match obs with
  | None -> f ()
  | Some tr -> Obs.Trace.with_span tr Obs.Trace.Phase name f

let compile_program ?(opts = Codegen.Options.default) ?obs program =
  phase obs "validate" (fun () -> Acc.Validate.check_program program);
  let env = phase obs "typecheck" (fun () -> Minic.Typecheck.check program) in
  let tprog =
    phase obs "translate" (fun () ->
        Codegen.Translate.translate ~opts env program)
  in
  (match obs with
  | Some tr ->
      Obs.Trace.count tr "kernels" (Array.length tprog.Codegen.Tprog.kernels)
  | None -> ());
  { program; env; tprog }

(** Compile a source string end to end. *)
let compile ?opts ?file ?obs src =
  compile_program ?opts ?obs
    (phase obs "parse" (fun () -> Minic.Parser.parse_string ?file src))

let compile_file ?opts path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let src = really_input_string ic n in
  close_in ic;
  compile ?opts ~file:path src

(** Execute the translated program on the simulated device. *)
let run ?seed ?cm c = Accrt.Interp.run ~coherence:false ?seed ?cm c.tprog

(** Execute with coherence instrumentation and collect transfer reports. *)
let run_instrumented ?mode ?seed ?cm c =
  let tp = Codegen.Checkgen.instrument ?mode c.tprog in
  Accrt.Interp.run ~coherence:true ?seed ?cm tp

(** Sequential reference execution of the unmodified source. *)
let run_reference c = Accrt.Eval.run_reference c.program

(** Kernel verification (§III-A) of the compiled program. *)
let verify ?opts ?config ?obs ?trace c =
  Kernel_verify.verify ?opts ?config ~env:(Some c.env) ?obs ?trace c.program

(** Interactive memory-transfer optimization (§III-B / Figure 2). *)
let optimize ?policy ?max_iterations ~outputs c =
  Session.optimize ?policy ?max_iterations ~outputs c.program
