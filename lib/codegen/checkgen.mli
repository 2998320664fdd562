(** Coherence-check insertion (§III-B): [check_read]/[check_write] for GPU
    data at kernel boundaries, first-access placement for CPU data,
    [reset_status] at last host writes of dead remote copies and after
    kernel launches, and the loop-hoisting optimization that makes the
    JACOBI deferred-copy redundancy detectable (paper Listing 3). *)

type mode =
  | Optimized  (** the paper's placement *)
  | Naive  (** per-access insertion — the ablation baseline *)

val instrument : ?mode:mode -> Tprog.t -> Tprog.t

(** Words of facts the seven dataflow solves [instrument] places checks
    from keep: Algorithm 1's live and dead solves on both devices,
    Algorithm 2 on the host and both first-access solves
    ({!Analysis.Dataflow.stored_words}). *)
val solve_words : Tprog.t -> int
