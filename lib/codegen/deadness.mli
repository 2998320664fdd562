(** The paper's Algorithm 1: may-dead / must-dead / may-live analysis of a
    device's copies of the tracked arrays (see the implementation header
    for the KILL-set deviation and the aliasing-induced weakening). *)

type dstatus = Live | May_dead | Must_dead

(** Per-node OUT_Live and OUT_Dead facts of one device. *)
type t

val compute : Tprog.t -> Tcfg.t -> Tcfg.sets -> Tprog.device -> t

(** Status of device copy [v] at the point {e after} node [n]. *)
val status_after : t -> int -> string -> dstatus

val status_name : dstatus -> string
