(** Exact nearest-rank percentiles over a concrete sample array, for the
    small populations (shard durations of one run) where exactness is
    affordable and reproducible.  No wall-clock input: every result is a
    pure function of the recorded samples. *)

(* Nearest-rank percentile (exact, inclusive): the ceil(q*n)-th smallest
   sample.  q clamps to [0,1]; the empty population has no percentile. *)
let percentile samples q =
  let n = Array.length samples in
  if n = 0 then Float.nan
  else begin
    let sorted = Array.copy samples in
    Array.sort compare sorted;
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
    sorted.(Int.max 0 (Int.min (n - 1) (rank - 1)))
  end
