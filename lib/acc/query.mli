(** Read-only helpers over OpenACC directives and clause lists. *)

open Minic.Ast

(** All data clauses of a directive, flattened to (kind, subarray) pairs. *)
val data_clauses : directive -> (data_kind * subarray) list

(** Variables named in any data clause. *)
val data_vars : directive -> string list

val private_vars : directive -> string list
val firstprivate_vars : directive -> string list

(** Reduction specs [(op, var)] declared on the directive. *)
val reductions : directive -> (redop * string) list

(** [Some None] for bare [async], [Some (Some e)] for [async(e)], [None]
    when the clause is absent. *)
val async : directive -> expr option option

val if_clause : directive -> expr option
val has_seq : directive -> bool
val collapse : directive -> int option
val update_host_subs : directive -> subarray list
val update_device_subs : directive -> subarray list

(** Does the clause kind imply a host-to-device copy at region entry? *)
val kind_copies_in : data_kind -> bool

(** ... a device-to-host copy at region exit? *)
val kind_copies_out : data_kind -> bool

(** ... a device allocation at entry (vs requiring presence)? *)
val kind_allocates : data_kind -> bool

(** Is this a compute construct (introduces GPU kernels)? *)
val is_compute : construct -> bool

(** Directives of a whole program, pre-order, with the [sid] of the carrying
    statement and the enclosing function name. *)
val directives_of : program -> (int * string * directive) list
