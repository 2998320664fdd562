(** Execution-engine selection for Mini-C interpretation.

    [Compiled], the default everywhere an engine is chosen, is the
    closure-compilation backend ({!Resolve} / {!Compile}) that resolves
    variables to array slots at compile time and turns the AST into nested
    OCaml closures.  [Tree] is the original tree-walking interpreter
    ({!Eval} / {!Kernel_exec}).  The two engines are bit-identical in
    observable behavior — outputs, [ops] accounting, hook firing,
    reduction order — which the differential test suite enforces; only
    wall-clock speed differs.

    The tree walker stays as the independent engine: recovery (CPU
    fallback and recovery validation) re-executes through it under either
    engine, {!Eval.run_reference} is the oracle that sessions and
    benchmarks compare outputs against, [saturate] checks every candidate
    under both engines, and the differential tests use it as the
    reference side. *)

type t = Tree | Compiled

let to_string = function Tree -> "tree" | Compiled -> "compiled"

let of_string = function
  | "tree" -> Some Tree
  | "compiled" -> Some Compiled
  | _ -> None

let all = [ Tree; Compiled ]
