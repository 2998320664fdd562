(** Iterative gen/kill dataflow solver over CFGs with {!Bitset} facts,
    solved per region.  The paper's Algorithm 1 (may/must-dead),
    Algorithm 2 (last-write) and the first-access placement analyses are
    instances with different directions, meets and gen/kill sets. *)

type direction = Forward | Backward
type meet = Union | Intersect

(** A graph cut into a chain of single-entry, single-exit regions of
    consecutive node ids, built once and shared by every solve over the
    graph. *)
type plan

(** [plan n edges]: the graph of the nodes [0 .. n - 1] and the edges
    [(a, b)] from [a] to [b], cut at each boundary between nodes [c - 1]
    and [c] that no edge crosses except into [c].  A graph whose node 0
    has predecessors, whose last node has successors, or some node of
    which is off a path from node 0 to the last node is one region.  A
    repeated edge changes neither the cuts nor any solve.
    @raise Invalid_argument on an edge outside [0 .. n - 1]. *)
val plan : int -> (int * int) list -> plan

(** Number of regions. *)
val regions : plan -> int

type spec = {
  direction : direction;
  meet : meet;
  width : int;  (** bits per fact *)
  top : Bitset.t;
      (** initial fact of every node under [Intersect] (unused by [Union],
          whose facts start empty) *)
  gen : int list array;  (** per node: the bits it generates *)
  kill : int list array;
      (** per node: the bits it kills, [output = gen ∪ (input − kill)] *)
  reset : bool array;
      (** per node: kills every bit, [output = gen] *)
}

(** The solved facts of each bit. *)
type result

(** Groups the bits by the merged run of regions their gen/kill touch and
    solves each group over its own nodes and words, the empty fact flowing
    in; a bit no gen/kill touches is empty everywhere.  A group's regions
    are solved one at a time in flow order, each by sweeps over its nodes
    in id order (descending for [Backward]): one for a region without a
    loop, until a sweep changes no output for one with a loop.  A visit
    costs O((1 + sources) × ⌈group bits / Sys.int_size⌉) word operations.
    A group's outflow reaches the regions after it through a one-bit flow
    per region, solved only in the regions with a reset or (when some bit
    is clear in [top]) a loop. *)
val solve : plan -> spec -> result

(** Is bit [i] in the fact node [v]'s transfer consumed: the meet over its
    predecessors (forward) or successors (backward), empty at nodes with
    none?  For a backward problem this is the paper's OUT set. *)
val mem_input : result -> int -> int -> bool

(** Is bit [i] in the fact node [v]'s transfer produced? *)
val mem_output : result -> int -> int -> bool

(** Words of facts the result keeps: its groups' rows and outflows and the
    rows of the one-bit flows it solved. *)
val stored_words : result -> int
