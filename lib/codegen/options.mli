(** Compiler configuration: automatic privatization and reduction
    recognition, disabled for Table II's fault injection. *)

type t = { auto_recognize : bool }

val default : t

(** Table II configuration: no automatic recovery of stripped clauses. *)
val fault_injection : t
