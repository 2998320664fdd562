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

type result = { input : Bitset.t array; output : Bitset.t array }

(* For a backward analysis we conceptually flip the graph: "input" below is
   the fact flowing into the transfer function, i.e. the fact at the node's
   successors side for backward problems.

   Every fact starts at [top] (Intersect) or empty (Union) and the
   transfers are monotone, so each bit's facts move one way only and the
   sweeps stop; a sweep that changes no output leaves every input as the
   meet of final outputs. *)
let solve g spec =
  let n = Graph.size g in
  let sources, order =
    match spec.direction with
    | Forward -> (Graph.preds g, Graph.reverse_postorder g ~entry:0)
    | Backward ->
        (Graph.succs g, List.rev (Graph.reverse_postorder g ~entry:0))
  in
  let init () =
    match spec.meet with
    | Union -> Bitset.create spec.width
    | Intersect -> Bitset.copy spec.top
  in
  let meet_into =
    match spec.meet with
    | Union -> Bitset.union_into
    | Intersect -> Bitset.inter_into
  in
  (* Boundary nodes (no sources) keep an empty input. *)
  let input =
    Array.init n (fun i ->
        if sources i = [] then Bitset.create spec.width else init ())
  in
  let output = Array.init n (fun _ -> init ()) in
  let order = Array.of_list order in
  let out = Bitset.create spec.width in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iter
      (fun node ->
        let inp = input.(node) in
        (match sources node with
        | [] -> ()
        | s :: rest ->
            Bitset.blit ~src:output.(s) ~dst:inp;
            List.iter (fun s -> meet_into ~dst:inp output.(s)) rest);
        Bitset.gen_kill ~dst:out ~gen:spec.gen.(node) ~kill:spec.kill.(node)
          inp;
        if not (Bitset.equal out output.(node)) then begin
          Bitset.blit ~src:out ~dst:output.(node);
          changed := true
        end)
      order
  done;
  { input; output }
