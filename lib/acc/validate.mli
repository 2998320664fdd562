(** OpenACC V1.0 directive validation: clause legality per construct,
    structural nesting rules, and data-clause sanity. *)

exception Invalid of Minic.Loc.t * string

val clause_name : Minic.Ast.clause -> string

(** Is the clause allowed on the construct (OpenACC 1.0 §2)? *)
val allowed_on : Minic.Ast.construct -> Minic.Ast.clause -> bool

(** Check one directive's clauses.  @raise Invalid on a violation. *)
val check_directive : Minic.Ast.directive -> unit

(** Validate every directive in the program, including that a constant
    subarray ends inside its array's constant extent.
    @raise Invalid on the first violation. *)
val check_program : Minic.Ast.program -> unit
