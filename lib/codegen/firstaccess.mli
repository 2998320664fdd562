(** First-read / first-write placement analysis (§III-B): a host access
    needs a coherence check only when it can be the first of its kind since
    program entry or the most recent kernel call.  Computed over accessed
    *names* (pointers included); the runtime resolves names to dynamic
    roots. *)

open Analysis

type t = {
  first_read : Varset.t array;
  first_write : Varset.t array;
  words : int;  (** words of facts its two solves keep *)
}

val compute : Tprog.t -> Tcfg.t -> Tcfg.sets -> t
