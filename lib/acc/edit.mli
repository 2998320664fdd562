(** Directive and statement editing — the interactive optimizer's "user
    edits" (Figure 2): rewrite directives addressed by the [sid] of their
    carrying statement, move variables between data-clause kinds, insert or
    remove [update] directives, wrap computations in [data] regions. *)

open Minic.Ast

(** A bare subarray reference [v]. *)
val sub : string -> subarray

(** Remove [v] from every data clause; drops emptied clauses. *)
val remove_data_var : clause list -> string -> clause list

val remove_private_var : clause list -> string -> clause list
val remove_reduction_var : clause list -> string -> clause list

(** Add a subarray to the clause of [kind] (merging when one exists). *)
val add_data_sub : clause list -> data_kind -> subarray -> clause list

val add_data_var : clause list -> data_kind -> string -> clause list

(** Add [v] to the [private] clause (merging when one exists). *)
val add_private_var : clause list -> string -> clause list

(** Add [v] to the [reduction(op:...)] clause (merging clauses of the same
    operator). *)
val add_reduction_var : clause list -> redop -> string -> clause list

(** Move [v] to data-clause [kind] (removing it from any other). *)
val set_data_kind : clause list -> string -> data_kind -> clause list

val find_data_kind : clause list -> string -> data_kind option

(** Number the statements that have no id yet (sid 0, built by
    {!Minic.Ast.mk_stmt}) above the program's largest sid, children
    before their parent in source order, as the parser does.  Every edit
    below that places statements ends with it. *)
val number : program -> program

(** Rewrite the directive carried by statement [sid]. *)
val map_directive :
  program -> sid:int -> f:(directive -> directive) -> program

(** Rebuild every block, [f] replacing each statement by a list (children
    already rewritten). *)
val expand_block : (stmt -> stmt list) -> block -> block

val expand_program : (stmt -> stmt list) -> program -> program

val insert_after : program -> sid:int -> stmt list -> program
val insert_before : program -> sid:int -> stmt list -> program
val remove_stmt : program -> sid:int -> program

(** Build an [update host(vs)] / [update device(vs)] statement. *)
val mk_update : ?loc:Minic.Loc.t -> host:bool -> string list -> stmt

(** Innermost enclosing loop statement of [sid], if any. *)
val enclosing_loop : program -> sid:int -> stmt option

(** Remove [v] from the host/device clauses of an update clause list. *)
val remove_update_var : clause list -> host:bool -> string -> clause list

(** Drop the redundant [side] of a data-clause kind (copy -In-> copyout,
    copyin -In-> create, ...). *)
val weaken_kind : data_kind -> [ `In | `Out ] -> data_kind

val weaken_clause :
  program -> sid:int -> var:string -> side:[ `In | `Out ] -> program

(** Grow the missing [side] of a data-clause kind (create -Out-> copyout,
    copyin -Out-> copy, ...). *)
val strengthen_kind : data_kind -> [ `In | `Out ] -> data_kind

val strengthen_clause :
  program -> sid:int -> var:string -> side:[ `In | `Out ] -> program

(** All sids contained in a statement, including its own. *)
val sids_of_stmt : stmt -> int list

(** Wrap the contiguous span of [main]'s top-level statements containing
    both sids in a directive (typically [data]). *)
val wrap_span :
  program -> first_sid:int -> last_sid:int -> directive:directive -> program

(** Wrap the single statement [sid] — at any nesting depth — in a
    directive (typically [data]); the new carrier is numbered above the
    program's largest sid. *)
val wrap_stmt : program -> sid:int -> directive:directive -> program

(** A [data] directive from (var, kind) clauses. *)
val mk_data_directive :
  ?loc:Minic.Loc.t -> (string * data_kind) list -> directive

val has_data_region : program -> bool

(** Data-region directives naming [var], with their subtree sids. *)
val regions_with_var :
  program -> var:string -> (int * directive * int list) list
