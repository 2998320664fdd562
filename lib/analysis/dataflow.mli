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

type result = {
  input : Bitset.t array;
      (** per node, the fact the transfer consumed: the meet over
          predecessors (forward) or successors (backward), empty at nodes
          with none — for a backward problem this is the paper's OUT set *)
  output : Bitset.t array;  (** the fact the transfer produced *)
}

(** Round-robin sweeps in reverse postorder from node 0 (its reverse for
    [Backward]; unreachable nodes last) until a sweep changes no output.
    Each sweep costs O((nodes + edges) × ⌈width / Sys.int_size⌉) word
    operations. *)
val solve : Graph.t -> spec -> result
