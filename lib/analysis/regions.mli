(** Access analysis of compute-region bodies: which arrays are read and
    written (pointer accesses resolved through {!Alias}), how each scalar is
    first accessed (input to automatic privatization), which scalars follow
    the accumulator pattern (input to reduction recognition), and a static
    operation-count estimate for the simulator's kernel cost model. *)

type first = First_read | First_write

type t = {
  arrays_read : Varset.t;  (** resolved array roots *)
  arrays_written : Varset.t;
  raw_read : Varset.t;  (** accessed array/pointer names, unresolved *)
  raw_written : Varset.t;
  scalars_read : Varset.t;
  scalars_written : Varset.t;
  declared : Varset.t;  (** names declared inside the region *)
  first_access : (string, first) Hashtbl.t;  (** per scalar *)
  accumulators : (string * Minic.Ast.redop) list;
      (** scalars whose every write is [v = v op e] and which are read
          nowhere else inside the region *)
  ops : int;  (** static per-execution operation estimate *)
  ambiguous : Varset.t;  (** ambiguous pointers accessed in the region *)
}

(** Analyze a statement list; [alias] from the enclosing function. *)
val analyze : alias:Alias.t -> Minic.Ast.block -> t

(** Scalars written (not declared inside) whose first access is a write:
    candidates for automatic privatization. *)
val privatizable : t -> Varset.t

(** Access analysis of a single statement (DEF/USE of translated host
    statements). *)
val of_stmt : alias:Alias.t -> Minic.Ast.stmt -> t
