(** Sets of variable names — the per-node access sets and the results of
    the dataflow analyses (the paper's Algorithms 1 and 2, first/last-access,
    liveness); the solver numbers them into {!Bitset} vectors. *)

include Set.S with type elt = string

val pp : Format.formatter -> t -> unit
val to_string : t -> string
