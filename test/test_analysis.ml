(* Analysis-library tests: points-to, region access analysis, the CFG
   carrier graph, and the gen/kill dataflow solver (with QCheck fixpoint
   and reference-solver properties). *)

open Minic
open Analysis

let setup src =
  let prog = Parser.parse_string src in
  let env = Typecheck.check prog in
  let alias = Alias.compute env prog "main" in
  (prog, env, alias)

(* ------------------------------ alias ------------------------------ *)

let test_alias_basic () =
  let _, _, alias =
    setup
      "int main() { float a[4]; float b[4]; float *p; float *q; p = a; q = \
       p; return 0; }"
  in
  Alcotest.(check bool) "p -> a" true
    (Varset.equal (Alias.resolve alias "p") (Varset.singleton "a"));
  Alcotest.(check bool) "q -> a (transitive)" true
    (Varset.equal (Alias.resolve alias "q") (Varset.singleton "a"));
  Alcotest.(check bool) "a -> a" true
    (Varset.equal (Alias.resolve alias "a") (Varset.singleton "a"));
  Alcotest.(check bool) "p unambiguous" false (Alias.is_ambiguous alias "p")

let test_alias_swap () =
  let _, _, alias =
    setup
      "int main() { float a[4]; float b[4]; float *p; float *q; float *t; \
       p = a; q = b; t = p; p = q; q = t; return 0; }"
  in
  Alcotest.(check bool) "p ambiguous after swap" true
    (Alias.is_ambiguous alias "p");
  Alcotest.(check bool) "p may be a or b" true
    (Varset.equal (Alias.resolve alias "p") (Varset.of_list [ "a"; "b" ]))

let test_alias_scalar () =
  let _, _, alias = setup "int main() { int x = 1; return 0; }" in
  Alcotest.(check bool) "scalar resolves to nothing" true
    (Varset.is_empty (Alias.resolve alias "x"))

(* ----------------------------- regions ----------------------------- *)

(* Analyze main's body with leading declarations stripped, so scalars
   declared at the top read as kernel-external (the compute-region shape). *)
let region_of src =
  let prog, _, alias = setup src in
  let body =
    let rec drop = function
      | { Ast.skind = Ast.Sdecl _; _ } :: rest -> drop rest
      | rest -> rest
    in
    drop (Ast.main_function prog).Ast.f_body
  in
  (Regions.analyze ~alias body, alias)

let test_regions_arrays () =
  let acc, _ =
    region_of
      "int main() { float a[4]; float b[4]; for (int i = 0; i < 4; i++) { \
       b[i] = a[i] * 2.0; } return 0; }"
  in
  Alcotest.(check bool) "a read" true
    (Varset.mem "a" acc.Regions.arrays_read);
  Alcotest.(check bool) "b written" true
    (Varset.mem "b" acc.Regions.arrays_written);
  Alcotest.(check bool) "b not read" false
    (Varset.mem "b" acc.Regions.arrays_read)

let test_regions_privatizable () =
  let acc, _ =
    region_of
      "int main() { float a[4]; float t; for (int i = 0; i < 4; i++) { t = \
       a[i]; a[i] = t * 2.0; } return 0; }"
  in
  Alcotest.(check bool) "t privatizable" true
    (Varset.mem "t" (Regions.privatizable acc))

let test_regions_accumulator () =
  let acc, _ =
    region_of
      "int main() { float a[4]; float s; s = 0.0; for (int i = 0; i < 4; \
       i++) { s = s + a[i]; } return 0; }"
  in
  (* s = 0.0 is a plain write, so s is NOT a pure accumulator of the whole
     body; restrict to the loop body for the kernel-shaped question. *)
  let acc2, _ =
    region_of
      "int main() { float a[4]; float s; int i; s = s + a[0]; s = s + \
       a[1]; return 0; }"
  in
  Alcotest.(check bool) "plain write disqualifies" true
    (List.assoc_opt "s" acc.Regions.accumulators = None);
  (match List.assoc_opt "s" acc2.Regions.accumulators with
  | Some Ast.Rsum -> ()
  | _ -> Alcotest.fail "s accumulator (+)");
  let accm, _ =
    region_of
      "int main() { float a[4]; float m; m = max(m, a[0]); m = max(m, \
       a[1]); return 0; }"
  in
  match List.assoc_opt "m" accm.Regions.accumulators with
  | Some Ast.Rmax -> ()
  | _ -> Alcotest.fail "m accumulator (max)"

let test_regions_pointer_rebinding () =
  let acc, _ =
    region_of
      "int main() { float a[4]; float *p; p = a; return 0; }"
  in
  Alcotest.(check bool) "rebinding writes no array" true
    (Varset.is_empty acc.Regions.arrays_written);
  let acc2, _ =
    region_of
      "int main() { float a[4]; float *p; p = a; p[0] = 1.0; return 0; }"
  in
  Alcotest.(check bool) "write through pointer hits root" true
    (Varset.mem "a" acc2.Regions.arrays_written)

(* ------------------------------ graph ------------------------------ *)

let test_graph () =
  let g = Graph.create () in
  let a = Graph.add_node g in
  let b = Graph.add_node g in
  let c = Graph.add_node g in
  Graph.add_edge g a b;
  Graph.add_edge g b c;
  Graph.add_edge g c b;
  (* duplicate edges are not added twice *)
  Graph.add_edge g a b;
  Alcotest.(check int) "size" 3 (Graph.size g);
  Alcotest.(check (list int)) "succs a" [ b ] (Graph.succs g a);
  Alcotest.(check (list int)) "preds b" [ a; c ]
    (List.sort compare (Graph.preds g b));
  let rpo = Graph.reverse_postorder g ~entry:a in
  Alcotest.(check int) "rpo covers all" 3 (Array.length rpo);
  Alcotest.(check int) "rpo starts at entry" a rpo.(0)

(* ----------------------------- dataflow ---------------------------- *)

(* Diamond CFG: 0 -> 1 -> 3, 0 -> 2 -> 3. *)
let diamond () =
  let g = Graph.create () in
  let n0 = Graph.add_node g and n1 = Graph.add_node g in
  let n2 = Graph.add_node g and n3 = Graph.add_node g in
  Graph.add_edge g n0 n1;
  Graph.add_edge g n0 n2;
  Graph.add_edge g n1 n3;
  Graph.add_edge g n2 n3;
  g

(* Bits of the names [l] over a one-name-per-bit index of [universe]. *)
let bits_of universe l =
  let ix = Bitset.index (Varset.of_list universe) in
  Bitset.of_varset ix (Varset.of_list l)

let test_dataflow_union_vs_intersect () =
  let g = diamond () in
  let x = bits_of [ "x" ] in
  let gen = [| x []; x [ "x" ]; x []; x [] |] in
  let solve meet =
    Dataflow.solve g
      { direction = Dataflow.Forward; meet; width = 1;
        top = Bitset.full 1; gen; kill = Array.make 4 (x []) }
  in
  let union = solve Dataflow.Union in
  let inter = solve Dataflow.Intersect in
  (* x is generated on one branch only: union sees it at the join, the
     all-paths meet does not. *)
  Alcotest.(check bool) "union join has x" true
    (Dataflow.mem_input union 3 0);
  Alcotest.(check bool) "intersect join lacks x" false
    (Dataflow.mem_input inter 3 0)

let test_dataflow_backward_loop () =
  (* 0 -> 1 -> 2, 1 -> 1 (self loop); liveness-style: node 2 uses "v". *)
  let g = Graph.create () in
  let n0 = Graph.add_node g and n1 = Graph.add_node g in
  let n2 = Graph.add_node g in
  Graph.add_edge g n0 n1;
  Graph.add_edge g n1 n1;
  Graph.add_edge g n1 n2;
  let v = bits_of [ "v" ] in
  let r =
    Dataflow.solve g
      { direction = Dataflow.Backward; meet = Dataflow.Union; width = 1;
        top = Bitset.full 1; gen = [| v []; v []; v [ "v" ] |];
        kill = Array.make 3 (v []) }
  in
  ignore n0;
  Alcotest.(check bool) "live through loop" true
    (Dataflow.mem_output r n1 0)

(* Random gen/kill problems over 3..200-name universes (one, two, three and
   four words, word boundaries included), every direction and meet. *)
type problem = {
  p_edges : (int * int) list;
  p_direction : Dataflow.direction;
  p_meet : Dataflow.meet;
  p_names : string list;
  p_top : Varset.t;
  p_gen : Varset.t array;
  p_kill : Varset.t array;
}

let problem_nodes = 8

let gen_problem =
  QCheck.Gen.(
    let* width = oneofl [ 3; 63; 64; 127; 200 ] in
    let names = List.init width (Printf.sprintf "v%03d") in
    let subset =
      let* picks = list_size (int_bound 6) (int_bound (width - 1)) in
      let* all = frequency [ (1, return true); (9, return false) ] in
      return
        (if all then Varset.of_list names
         else Varset.of_list (List.map (List.nth names) picks))
    in
    let* p_edges =
      list_size (int_bound 14)
        (pair (int_bound (problem_nodes - 1)) (int_bound (problem_nodes - 1)))
    in
    let* p_direction = oneofl [ Dataflow.Forward; Dataflow.Backward ] in
    let* p_meet = oneofl [ Dataflow.Union; Dataflow.Intersect ] in
    let* p_top =
      frequency [ (3, return (Varset.of_list names)); (1, subset) ]
    in
    let* p_gen = array_size (return problem_nodes) subset in
    let* p_kill = array_size (return problem_nodes) subset in
    return
      { p_edges; p_direction; p_meet; p_names = names; p_top; p_gen; p_kill })

let print_problem p =
  Fmt.str "%d names, %s %s, edges %a" (List.length p.p_names)
    (match p.p_direction with
    | Dataflow.Forward -> "forward"
    | Backward -> "backward")
    (match p.p_meet with Dataflow.Union -> "union" | Intersect -> "intersect")
    Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
    p.p_edges

let arb_problem = QCheck.make ~print:print_problem gen_problem

let graph_of p =
  let g = Graph.create () in
  for _ = 1 to problem_nodes do ignore (Graph.add_node g) done;
  List.iter (fun (a, b) -> Graph.add_edge g a b) p.p_edges;
  g

let sources p g =
  match p.p_direction with
  | Dataflow.Forward -> Graph.preds g
  | Dataflow.Backward -> Graph.succs g

(* Solve [p] with the bit-vector solver; every node's input and output are
   read back as name sets, bit by bit through the solver's accessors. *)
let solve_bits p =
  let g = graph_of p in
  let ix = Bitset.index (Varset.of_list p.p_names) in
  let width = Bitset.width ix in
  let r =
    Dataflow.solve g
      { direction = p.p_direction; meet = p.p_meet; width;
        top =
          (* the all-names top as the callers build it *)
          (if Varset.cardinal p.p_top = width then Bitset.full width
           else Bitset.of_varset ix p.p_top);
        gen = Bitset.of_varsets ix p.p_gen;
        kill = Bitset.of_varsets ix p.p_kill }
  in
  let names_of mem v =
    Varset.of_list
      (List.filteri (fun i _ -> mem r v i) p.p_names)
  in
  let nodes = Graph.nodes g in
  ( g,
    Array.map (names_of Dataflow.mem_input) nodes,
    Array.map (names_of Dataflow.mem_output) nodes )

let transfer p n inp = Varset.union p.p_gen.(n) (Varset.diff inp p.p_kill.(n))

let meet_of p g outputs n =
  match sources p g n with
  | [] -> Varset.empty
  | s :: rest ->
      let meet =
        match p.p_meet with
        | Dataflow.Union -> Varset.union
        | Dataflow.Intersect -> Varset.inter
      in
      List.fold_left (fun acc s -> meet acc outputs.(s)) outputs.(s) rest

(* Naive reference: name sets, node-id order, repeat until nothing moves.
   Facts start at top (intersect) or empty (union); nodes without sources
   consume the empty fact. *)
let solve_reference p =
  let g = graph_of p in
  let init =
    match p.p_meet with
    | Dataflow.Union -> Varset.empty
    | Dataflow.Intersect -> p.p_top
  in
  let input = Array.make problem_nodes init in
  let output = Array.make problem_nodes init in
  let changed = ref true in
  while !changed do
    changed := false;
    for n = 0 to problem_nodes - 1 do
      let inp = meet_of p g output n in
      let out = transfer p n inp in
      if not (Varset.equal inp input.(n) && Varset.equal out output.(n))
      then begin
        input.(n) <- inp;
        output.(n) <- out;
        changed := true
      end
    done
  done;
  (input, output)

(* Property: the solver's solution is a fixpoint of the equations. *)
let dataflow_fixpoint =
  QCheck.Test.make ~count:200 ~name:"dataflow solution is a fixpoint"
    arb_problem (fun p ->
      let g, input, output = solve_bits p in
      Array.for_all
        (fun n ->
          let expected_in = meet_of p g output n in
          Varset.equal input.(n) expected_in
          && Varset.equal output.(n) (transfer p n expected_in))
        (Graph.nodes g))

(* Property: it is the same fixpoint the naive name-set solver reaches. *)
let dataflow_reference =
  QCheck.Test.make ~count:200
    ~name:"dataflow agrees with the reference solver" arb_problem (fun p ->
      let _, input, output = solve_bits p in
      let ref_input, ref_output = solve_reference p in
      Array.for_all2 Varset.equal input ref_input
      && Array.for_all2 Varset.equal output ref_output)

let tests =
  [ Alcotest.test_case "alias: basic points-to" `Quick test_alias_basic;
    Alcotest.test_case "alias: pointer swap ambiguity" `Quick test_alias_swap;
    Alcotest.test_case "alias: scalars" `Quick test_alias_scalar;
    Alcotest.test_case "regions: array accesses" `Quick test_regions_arrays;
    Alcotest.test_case "regions: privatizable" `Quick
      test_regions_privatizable;
    Alcotest.test_case "regions: accumulators" `Quick
      test_regions_accumulator;
    Alcotest.test_case "regions: pointer rebinding" `Quick
      test_regions_pointer_rebinding;
    Alcotest.test_case "graph basics" `Quick test_graph;
    Alcotest.test_case "dataflow: union vs intersect" `Quick
      test_dataflow_union_vs_intersect;
    Alcotest.test_case "dataflow: backward with loop" `Quick
      test_dataflow_backward_loop;
    QCheck_alcotest.to_alcotest dataflow_fixpoint;
    QCheck_alcotest.to_alcotest dataflow_reference ]
