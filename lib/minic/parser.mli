(** Recursive-descent parser for Mini-C and its OpenACC pragmas.
    All entry points raise {!Loc.Error} on malformed input. *)

(** Does this directive introduce a structured statement body? *)
val directive_has_body : Ast.directive -> bool

(** Parse a full Mini-C translation unit.  A unit that defines no
    function is an error located at its end of input. *)
val parse_string : ?file:string -> string -> Ast.program

(** Parse a single expression (tests and the CLI). *)
val expr_of_string : string -> Ast.expr
