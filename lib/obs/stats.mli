(** Exact nearest-rank percentiles over simulated durations.  No
    wall-clock input — every result is a pure function of the samples. *)

(** [percentile samples q] is the exact nearest-rank percentile (the
    ceil(q*n)-th smallest sample) for [q] in [0,1], computed over a copy
    of [samples].  One sample is every percentile of itself; the empty
    array yields [nan]. *)
val percentile : float array -> float -> float
