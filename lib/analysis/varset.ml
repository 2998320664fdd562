(** Sets of variable names — the per-node access sets and the results of
    the dataflow analyses in this compiler (Algorithms 1 and 2 of the
    paper, first/last-access analyses, liveness).  The solver itself works
    on {!Bitset} vectors numbered in this set order. *)

include Set.Make (String)

let pp ppf s =
  Fmt.pf ppf "{%a}" (Fmt.list ~sep:(Fmt.any ", ") Fmt.string) (elements s)

let to_string s = Fmt.str "%a" pp s
