(** The [openarc lint] entry point: whole-program static diagnostics.

    Combines the loop-carried race / privatization detector ({!Race}) with
    the static transfer diagnostics ({!Xfer}) over one translated program
    and returns deduplicated, deterministically ordered diagnostics. *)

module Diag = Diag
module Race = Race
module Xfer = Xfer

(** Lint a program compiled by [Openarc_core.Compiler]. *)
val run_tprog : Codegen.Tprog.t -> Diag.t list

(** Compile a parsed program through [Openarc_core.Compiler] and lint it.
    @raise Minic.Loc.Error on type errors
    @raise Acc.Validate.Invalid on OpenACC misuse *)
val run_program :
  ?opts:Codegen.Options.t -> Minic.Ast.program -> Diag.t list
