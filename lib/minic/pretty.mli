(** Pretty-printer for Mini-C: emits source text that re-parses to a
    structurally equal AST (the round-trip property tested in the suite).
    One printer writes into a buffer; the [pp_*] printers write its text to
    a formatter. *)

val binop_str : Ast.binop -> string
val data_kind_str : Ast.data_kind -> string
val redop_str : Ast.redop -> string
val construct_str : Ast.construct -> string
val pp_expr : Format.formatter -> Ast.expr -> unit
val pp_lvalue : Format.formatter -> Ast.lvalue -> unit

(** [pp_stmt indent] prints a statement at the given indentation depth. *)
val pp_stmt : int -> Format.formatter -> Ast.stmt -> unit

val pp_block : int -> Format.formatter -> Ast.block -> unit
val program_to_string : Ast.program -> string
val expr_to_string : Ast.expr -> string
val stmt_to_string : Ast.stmt -> string
