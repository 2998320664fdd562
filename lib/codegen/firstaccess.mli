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

(** [main] holds the variables in the scope of function [main]
    ({!Tcfg.main_vars}); with the tracked arrays they bound the names a
    fact may hold. *)
val compute : Tprog.t -> Tcfg.t -> Tcfg.sets -> main:Varset.t -> t
