(** The paper's Algorithm 2: last-write analysis.  A host write of [v] at
    node [n] is *last* if no following path writes [v] again before program
    exit or the next kernel call — the points where [reset_status] goes. *)

open Analysis

type t = {
  last : Varset.t array;  (** per node: arrays whose write here is last *)
  words : int;  (** words of facts its solve keeps *)
}

val compute : Tprog.t -> Tcfg.t -> Tcfg.sets -> t
val is_last_write : t -> int -> string -> bool
