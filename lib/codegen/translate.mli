(** OpenARC translation: lower an OpenACC-annotated Mini-C program to a
    {!Tprog.t}.  Data semantics follow OpenACC V1.0; arrays accessed by a
    compute region with no covering data clause fall back to the *default
    scheme* — copy in before the launch, copy back after — the naive
    baseline of the paper's Figure 1.  Directive-containing callees are
    inlined first. *)

(** Translate a validated, type-checked program (its [main]).  This is the
    one place callees are inlined: when [prog] needs it, the inlined
    program is re-typechecked, and the result's [source] and [env] are the
    inlined program and its types.  Ids belong to the translation: its
    statements, its sites and the names of its inlined calls are numbered
    from 1.  Tools reach it through [Openarc_core.Compiler]. *)
val translate :
  ?opts:Options.t -> Minic.Typecheck.env -> Minic.Ast.program -> Tprog.t
