(** Iterative gen/kill dataflow solver over {!Graph} CFGs with {!Bitset}
    facts.

    The paper's Algorithm 1 (may-dead / must-dead / may-live) and Algorithm 2
    (last-write), as well as the first-read/first-write placement analyses,
    are all instances of this solver with different directions, meets and
    gen/kill sets. *)

type direction = Forward | Backward

type meet = Union | Intersect

type spec = {
  direction : direction;
  meet : meet;
  width : int;
  top : Bitset.t;
  gen : Bitset.t array;
  kill : Bitset.t array;
}

(* Node [v]'s output is the row of words [v * words .. v * words + words -
   1] of [rows]; its input is never stored, but met from its sources' rows
   when asked for.  The sources of [v] (predecessors forward, successors
   backward) are [src.(off.(v)) .. src.(off.(v + 1) - 1)]. *)
type result = {
  meet : meet;
  words : int;
  rows : int array;
  off : int array;
  src : int array;
}

(* Word [j] of the meet of [v]'s sources' rows; empty without sources. *)
let input_word r v j =
  let lo = r.off.(v) and hi = r.off.(v + 1) and w = r.words in
  if lo = hi then 0
  else begin
    let acc = ref r.rows.((r.src.(lo) * w) + j) in
    (match r.meet with
    | Union ->
        for k = lo + 1 to hi - 1 do
          acc := !acc lor r.rows.((r.src.(k) * w) + j)
        done
    | Intersect ->
        for k = lo + 1 to hi - 1 do
          acc := !acc land r.rows.((r.src.(k) * w) + j)
        done);
    !acc
  end

(* For a backward analysis we conceptually flip the graph: "input" below is
   the fact flowing into the transfer function, i.e. the fact at the node's
   successors side for backward problems.

   Every row starts at [top] (Intersect) or empty (Union) and the
   transfers are monotone, so each bit's facts move one way only and the
   sweeps stop at the same fixpoint in any visiting order.  A sweep visits
   only the nodes some source of which changed its row after their last
   visit (every node, the first time); one visit meets, transfers and
   compares word by word. *)
let solve g spec =
  let n = Graph.size g in
  let rpo = Graph.reverse_postorder g ~entry:0 in
  let order, sources =
    match spec.direction with
    | Forward -> (rpo, Graph.preds g)
    | Backward -> (Array.init n (fun i -> rpo.(n - 1 - i)), Graph.succs g)
  in
  let off = Array.make (n + 1) 0 in
  for v = 0 to n - 1 do
    off.(v + 1) <- off.(v) + List.length (sources v)
  done;
  let src = Array.make off.(n) 0 in
  for v = 0 to n - 1 do
    List.iteri (fun k s -> src.(off.(v) + k) <- s) (sources v)
  done;
  let words = Bitset.words spec.width in
  let r =
    { meet = spec.meet; words; rows = Array.make (n * words) 0; off; src }
  in
  (match spec.meet with
  | Union -> ()
  | Intersect ->
      let top = (spec.top :> int array) in
      for v = 0 to n - 1 do
        Array.blit top 0 r.rows (v * words) words
      done);
  (* Visit times; a row's change is stamped after the visit that made it,
     so a node that is its own source sees its change. *)
  let clock = ref 0 in
  let visited = Array.make n (-1) and changed = Array.make n 0 in
  let due v =
    let t = visited.(v) in
    t < 0
    ||
    let rec any k =
      k < off.(v + 1) && (changed.(src.(k)) > t || any (k + 1))
    in
    any off.(v)
  in
  let visit v =
    incr clock;
    visited.(v) <- !clock;
    let gen = (spec.gen.(v) :> int array)
    and kill = (spec.kill.(v) :> int array) in
    let base = v * words and moved = ref false in
    for j = 0 to words - 1 do
      let out = gen.(j) lor (input_word r v j land lnot kill.(j)) in
      if out <> r.rows.(base + j) then begin
        r.rows.(base + j) <- out;
        moved := true
      end
    done;
    if !moved then begin
      incr clock;
      changed.(v) <- !clock
    end;
    !moved
  in
  let again = ref true in
  while !again do
    again := false;
    Array.iter (fun v -> if due v && visit v then again := true) order
  done;
  r

let mem_input r v i =
  input_word r v (Bitset.word i) land Bitset.mask i <> 0

let mem_output r v i =
  r.rows.((v * r.words) + Bitset.word i) land Bitset.mask i <> 0
