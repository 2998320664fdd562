(** The paper's Algorithm 1: may-dead / must-dead / may-live analysis of a
    device's copies of the tracked arrays (see the implementation header
    for the KILL-set deviation and the aliasing-induced weakening). *)

type dstatus = Live | May_dead | Must_dead

(** Per-node OUT_Live and OUT_Dead facts of one device. *)
type facts

type t = { cpu : facts; gpu : facts }

(** Both devices' facts, from one tracked-array index and one set of
    arrays whose must-dead facts an ambiguous pointer weakens. *)
val compute : Tprog.t -> Tcfg.t -> Tcfg.sets -> t

(** Status of device copy [v] at the point {e after} node [n]. *)
val status_after : facts -> int -> string -> dstatus

val status_name : dstatus -> string

(** Words of facts its four solves keep ({!Analysis.Dataflow.stored_words}). *)
val stored_words : t -> int
