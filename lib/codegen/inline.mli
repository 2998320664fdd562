(** Inlining of directive-containing functions at their (statement-position)
    call sites — the OpenARC-style procedure transformation that lets
    kernels live in library functions while translation stays
    intraprocedural.  Array/pointer parameters become pointer aliases
    (reference semantics); scalars are copied; bodies and their directive
    clauses are alpha-renamed. *)

(** Does the function body contain any OpenACC directive? *)
val has_directives : Minic.Ast.func -> bool

(** Fully inline directive-containing callees (fixpoint, recursion
    rejected), then drop their now-uncalled definitions.
    @raise Minic.Loc.Error for recursion among them, expression-position
    calls, non-variable array arguments, or non-trailing returns. *)
val expand : Minic.Ast.program -> Minic.Ast.program

(** Would {!expand} change the program (callers then re-typecheck)? *)
val needs_expansion : Minic.Ast.program -> bool
