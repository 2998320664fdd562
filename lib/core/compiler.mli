(** The one front end of the OpenARC pipeline: parse, validate, type check
    and translate.  The CLI commands, {!Kernel_verify}, {!Session},
    {!Faults}, {!Fault_matrix}, [Lint], [Saturate], the bench tiers and the
    examples all compile through it, so every tool accepts and rejects the
    same programs.

    The result is the translation itself.  Its [source] is the program that
    was translated — with directive-containing callees inlined into [main]
    ({!Codegen.Inline}) — and its [env] holds that program's types, so a
    tool that executes or edits the source reads [source], never the
    program it passed in.  Instrument it with {!Codegen.Checkgen.instrument}
    and run it with {!Accrt.Interp.exec}. *)

(** Compile a source string.  [obs] records one phase span per stage
    (parse, validate, typecheck, translate) plus a ["kernels"] counter.
    @raise Minic.Loc.Error on lexical/syntax/type errors
    @raise Acc.Validate.Invalid on OpenACC misuse *)
val compile :
  ?opts:Codegen.Options.t -> ?file:string -> ?obs:Obs.Trace.t -> string ->
  Codegen.Tprog.t

(** Compile a parsed program: {!compile} without the parse stage. *)
val compile_program :
  ?opts:Codegen.Options.t -> ?obs:Obs.Trace.t -> Minic.Ast.program ->
  Codegen.Tprog.t
