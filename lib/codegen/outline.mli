(** Kernel outlining: turn OpenACC compute regions into {!Tprog.kernel}s.

    Each top-level loop of a compute region becomes one GPU kernel (named
    [<function>_kernel<N>], as OpenARC does); straight-line statements
    inside a [kernels] region become single-thread kernels.  Outlining also
    classifies every scalar of the body — private, firstprivate, reduction,
    or (when clauses are missing and automatic recognition is off) *raced*,
    with the race kind the simulator manifests (§IV-B) — and computes the
    kernel's interface, which the runtime binds ([k_inputs]).  A loop
    directive it cannot outline is a {!Minic.Loc.Error} at the directive's
    statement. *)

(** Loop induction variables of a body (predetermined private). *)
val induction_vars : string -> Minic.Ast.block -> Analysis.Varset.t

(** Outline the kernels of one compute region of [prog], in execution order.
    [fresh] allocates kernel ids; [region_sid] is the [sid] of the carrying
    [Sacc] statement (the anchor for verification and directive edits). *)
val outline_region :
  opts:Options.t -> alias:Analysis.Alias.t -> prog:Minic.Ast.program ->
  fname:string ->
  fresh:(unit -> int) -> region_sid:int -> Minic.Ast.directive ->
  Minic.Ast.stmt -> Tprog.kernel list
