(** The symbolic kernel-equivalence engine.

    For each outlined kernel the engine decides whether the simulated
    device execution is equivalent to executing the retained sequential
    region, by symbolic means alone:

    - {b Proved}: every committed object (written array, committed
      scalar) has the same normal form under both executions.  The
      certificate lists the matched normal forms, any subscript
      distinctness hypotheses the proof rests on, and notes (e.g. that
      tree and sequential reductions are compared over ℝ).
    - {b Disproved}: some object provably differs; the refutation names
      it and gives the two symbolic values plus a concrete
      distinguishing iteration when the loop bounds are literal.
    - {b Unknown}: the kernel leaves the affine fragment (while loops,
      unstructured control flow, non-affine subscripts, pointer
      aliasing, loop-carried scalar state, ...).  Callers must fall
      back to the numeric comparator.

    Soundness convention: a [Proved] verdict also asserts
    {e engine-independence} — no cross-iteration write-write or
    write-read overlap — so it holds for any execution order of the
    parallel iterations, not just the in-order reference simulator.
    Overlapping-but-in-order-benign kernels come out [Unknown], never
    [Proved]. *)

type certificate = {
  c_objects : (string * string) list;
      (** object name → matched normal form (printable) *)
  c_hypotheses : string list;
      (** subscript distinctness assumptions the proof relies on *)
  c_notes : string list;
}

type refutation = {
  r_object : string;
  r_device : string;  (** symbolic committed value on the device *)
  r_sequential : string;  (** symbolic value after the sequential region *)
  r_index : int option;
      (** a concrete distinguishing iteration, when bounds are literal *)
  r_witness : string;  (** human-readable account of the divergence *)
}

type verdict =
  | Proved of certificate
  | Disproved of refutation
  | Unknown of string  (** why the kernel is outside the fragment *)

type kernel_verdict = { kv_name : string; kv_verdict : verdict }

type t = {
  kernels : kernel_verdict list;
  proved : int;
  disproved : int;
  unknown : int;
}

val verdict_name : verdict -> string
(** ["proved"], ["disproved"] or ["unknown"]. *)

val check_kernel : Codegen.Tprog.t -> Codegen.Tprog.kernel -> verdict

val check_tprog : Codegen.Tprog.t -> t
(** Verdicts for every kernel of a translated program, in kernel order. *)

val check_program : ?opts:Codegen.Options.t -> Minic.Ast.program -> t
(** Convenience: typecheck and translate a validated [prog] (callees
    are inlined by the translation), then run {!check_tprog}.  Raises the
    usual front-end exceptions on ill-typed programs.  This library sits
    below [Openarc_core.Compiler]; tools that have its translation call
    {!check_tprog}. *)

val pp_kernel : Format.formatter -> kernel_verdict -> unit
val pp : Format.formatter -> t -> unit
