(** Type checker and symbol resolution for Mini-C.

    Rejects ill-typed programs with located errors and returns a type
    environment mapping, per function, every name in scope to its type.
    Mini-C is deliberately lenient about [int]/[float] mixing (implicit
    conversions, as in C); the OpenACC V1.0 runtime-library routines
    ([acc_*]) are built in. *)

module Smap : Map.S with type key = string

type fenv = Ast.typ Smap.t

type env = {
  funcs : Ast.func Smap.t;
  globals : Ast.typ Smap.t;
  vars : fenv Smap.t;  (** per-function: every name in scope anywhere *)
}

(** Builtin functions: name -> (arity, argument type, result type);
    [Tvoid] argument type means "numeric, either int or float". *)
val builtins : (string * (int * Ast.typ * Ast.typ)) list

(** Check a program.  @raise Loc.Error on the first problem. *)
val check : Ast.program -> env

(** Types of all names in scope in a function ([main] includes globals).
    @raise Invalid_argument on unknown functions. *)
val function_vars : env -> string -> fenv

val var_type : env -> string -> string -> Ast.typ option

(** Is the name an array or pointer (device-memory relevant)? *)
val is_array_var : env -> string -> string -> bool
