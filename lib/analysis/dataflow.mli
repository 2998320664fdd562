(** Iterative gen/kill dataflow solver over {!Graph} CFGs with {!Bitset}
    facts.  The paper's Algorithm 1 (may-dead/may-live), Algorithm 2
    (last-write) and the first-access placement analyses are instances with
    different directions, meets and gen/kill sets. *)

type direction = Forward | Backward
type meet = Union | Intersect

type spec = {
  direction : direction;
  meet : meet;
  width : int;  (** bits per fact *)
  top : Bitset.t;
      (** initial fact of every node under [Intersect] (unused by [Union],
          whose facts start empty) *)
  gen : Bitset.t array;  (** per node *)
  kill : Bitset.t array;  (** per node: [output = gen ∪ (input − kill)] *)
}

(** The solved facts: one row of words per node, holding the fact its
    transfer produced. *)
type result

(** Sweeps in reverse postorder from node 0 (its reverse for [Backward];
    unreachable nodes last) until a sweep changes no output, each sweep
    visiting only the nodes a source of which changed since their last
    visit.  A visit costs O((1 + sources) × ⌈width / Sys.int_size⌉) word
    operations. *)
val solve : Graph.t -> spec -> result

(** Is bit [i] in the fact node [v]'s transfer consumed: the meet over its
    predecessors (forward) or successors (backward), empty at nodes with
    none?  For a backward problem this is the paper's OUT set.  Met from
    the sources' outputs on each query. *)
val mem_input : result -> int -> int -> bool

(** Is bit [i] in the fact node [v]'s transfer produced? *)
val mem_output : result -> int -> int -> bool
