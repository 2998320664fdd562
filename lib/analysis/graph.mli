(** Small mutable digraph used as the CFG carrier for dataflow analyses.
    Nodes are dense integer ids [0 .. n-1]; payloads live with the client. *)

type t

val create : unit -> t

(** Allocate a fresh node and return its id. *)
val add_node : t -> int

(** Add an edge (idempotent).  @raise Invalid_argument on bad ids. *)
val add_edge : t -> int -> int -> unit

val size : t -> int
val succs : t -> int -> int list
val preds : t -> int -> int list
val nodes : t -> int array

(** Nodes in reverse postorder from [entry] (unreachable nodes appended in
    id order). *)
val reverse_postorder : t -> entry:int -> int array
