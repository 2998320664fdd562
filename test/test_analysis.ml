(* Analysis-library tests: points-to, region access analysis, the CFG
   carrier graph, and the gen/kill dataflow solver (with QCheck fixpoint
   and reference-solver properties, on arbitrary and on structured,
   region-cut graphs). *)

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
    (List.sort compare (Graph.preds g b))

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

let test_dataflow_union_vs_intersect () =
  let g = diamond () in
  let solve meet =
    Dataflow.solve (Dataflow.plan g)
      { direction = Dataflow.Forward; meet; width = 1;
        top = Bitset.full 1; gen = [| []; [ 0 ]; []; [] |];
        kill = Array.make 4 []; reset = Array.make 4 false }
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
  let r =
    Dataflow.solve (Dataflow.plan g)
      { direction = Dataflow.Backward; meet = Dataflow.Union; width = 1;
        top = Bitset.full 1; gen = [| []; []; [ 0 ] |];
        kill = Array.make 3 []; reset = Array.make 3 false }
  in
  ignore n0;
  Alcotest.(check bool) "live through loop" true
    (Dataflow.mem_output r n1 0)

(* Solve a problem given as per-node name sets over [names] (bit [i] is
   the [i]-th name), and read every node's input and output back as name
   sets, bit by bit through the solver's accessors. *)
let solve_sets g ~direction ~meet ~names ~top ~gen ~kill ~reset =
  let ix = Bitset.index (Varset.of_list names) in
  let width = Bitset.width ix in
  let r =
    Dataflow.solve (Dataflow.plan g)
      { direction; meet; width;
        top =
          (* the all-names top as the callers build it *)
          (if Varset.cardinal top = width then Bitset.full width
           else Bitset.of_varset ix top);
        gen = Array.map (Bitset.bits ix) gen;
        kill = Array.map (Bitset.bits ix) kill; reset }
  in
  let names_of mem v =
    Varset.of_list (List.filteri (fun i _ -> mem r v i) names)
  in
  let nodes = Graph.nodes g in
  ( Array.map (names_of Dataflow.mem_input) nodes,
    Array.map (names_of Dataflow.mem_output) nodes )

let sources direction g =
  match direction with
  | Dataflow.Forward -> Graph.preds g
  | Dataflow.Backward -> Graph.succs g

let meet_sets meet =
  match meet with
  | Dataflow.Union -> Varset.union
  | Dataflow.Intersect -> Varset.inter

let meet_of direction meet g outputs n =
  match sources direction g n with
  | [] -> Varset.empty
  | s :: rest ->
      List.fold_left
        (fun acc s -> meet_sets meet acc outputs.(s))
        outputs.(s) rest

let transfer ~gen ~kill ~reset n inp =
  Varset.union gen.(n)
    (if reset.(n) then Varset.empty else Varset.diff inp kill.(n))

(* Naive reference: name sets, node-id order, repeat until nothing moves.
   Facts start at top (intersect) or empty (union); nodes without sources
   consume the empty fact. *)
let reference g ~direction ~meet ~top ~gen ~kill ~reset =
  let n = Graph.size g in
  let init =
    match meet with Dataflow.Union -> Varset.empty | Intersect -> top
  in
  let input = Array.make n init in
  let output = Array.make n init in
  let changed = ref true in
  while !changed do
    changed := false;
    for v = 0 to n - 1 do
      let inp = meet_of direction meet g output v in
      let out = transfer ~gen ~kill ~reset v inp in
      if not (Varset.equal inp input.(v) && Varset.equal out output.(v))
      then begin
        input.(v) <- inp;
        output.(v) <- out;
        changed := true
      end
    done
  done;
  (input, output)

(* Random gen/kill problems over 3..200-name universes (one, two, three and
   four words, word boundaries included), every direction and meet, on
   arbitrary 8-node graphs (mostly one region). *)
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

let direction_name = function
  | Dataflow.Forward -> "forward"
  | Backward -> "backward"

let meet_name = function Dataflow.Union -> "union" | Intersect -> "intersect"

let print_problem p =
  Fmt.str "%d names, %s %s, edges %a" (List.length p.p_names)
    (direction_name p.p_direction) (meet_name p.p_meet)
    Fmt.(list ~sep:comma (pair ~sep:(any "->") int int))
    p.p_edges

let arb_problem = QCheck.make ~print:print_problem gen_problem

let graph_of p =
  let g = Graph.create () in
  for _ = 1 to problem_nodes do ignore (Graph.add_node g) done;
  List.iter (fun (a, b) -> Graph.add_edge g a b) p.p_edges;
  g

let solve_problem p =
  let g = graph_of p in
  let reset = Array.make problem_nodes false in
  let input, output =
    solve_sets g ~direction:p.p_direction ~meet:p.p_meet ~names:p.p_names
      ~top:p.p_top ~gen:p.p_gen ~kill:p.p_kill ~reset
  in
  (g, reset, input, output)

(* Property: the solver's solution is a fixpoint of the equations. *)
let dataflow_fixpoint =
  QCheck.Test.make ~count:200 ~name:"dataflow solution is a fixpoint"
    arb_problem (fun p ->
      let g, reset, input, output = solve_problem p in
      Array.for_all
        (fun n ->
          let expected_in = meet_of p.p_direction p.p_meet g output n in
          Varset.equal input.(n) expected_in
          && Varset.equal output.(n)
               (transfer ~gen:p.p_gen ~kill:p.p_kill ~reset n expected_in))
        (Graph.nodes g))

(* Property: it is the same fixpoint the naive name-set solver reaches. *)
let dataflow_reference =
  QCheck.Test.make ~count:200
    ~name:"dataflow agrees with the reference solver" arb_problem (fun p ->
      let g, reset, input, output = solve_problem p in
      let ref_input, ref_output =
        reference g ~direction:p.p_direction ~meet:p.p_meet ~top:p.p_top
          ~gen:p.p_gen ~kill:p.p_kill ~reset
      in
      Array.for_all2 Varset.equal input ref_input
      && Array.for_all2 Varset.equal output ref_output)

(* ------------------------ structured graphs ------------------------ *)

(* The statement shapes [Codegen.Tcfg.build] turns into nodes, in program
   order: a leaf is one node, [If] a condition node then both arms, [While]
   a condition node then its body (back edge to the condition), [For] an
   init node, a condition node, the body and a step node. *)
type shape =
  | Leaf
  | If of shape list * shape list
  | While of shape list
  | For of shape list

let rec gen_body depth =
  QCheck.Gen.(
    let* len = int_range 0 (if depth = 0 then 6 else 3) in
    list_repeat len (gen_shape depth))

and gen_shape depth =
  QCheck.Gen.(
    if depth >= 3 then return Leaf
    else
      frequency
        [ (4, return Leaf);
          ( 1,
            map2 (fun a b -> If (a, b)) (gen_body (depth + 1))
              (gen_body (depth + 1)) );
          (1, map (fun b -> While b) (gen_body (depth + 1)));
          (1, map (fun b -> For b) (gen_body (depth + 1))) ])

(* Entry node 0, the statements, the exit node last — the numbering and
   edges of [Tcfg.build]. *)
let structured body =
  let g = Graph.create () in
  let node preds =
    let n = Graph.add_node g in
    List.iter (fun p -> Graph.add_edge g p n) preds;
    n
  in
  let rec stmt preds = function
    | Leaf -> [ node preds ]
    | If (a, b) ->
        let c = node preds in
        let pa = seq [ c ] a and pb = seq [ c ] b in
        pa @ if b = [] then [ c ] else pb
    | While b ->
        let c = node preds in
        List.iter (fun p -> Graph.add_edge g p c) (seq [ c ] b);
        [ c ]
    | For b ->
        let c = node [ node preds ] in
        let step = node (seq [ c ] b) in
        Graph.add_edge g step c;
        [ c ]
  and seq preds body = List.fold_left stmt preds body in
  ignore (node (seq [ node [] ] body));
  g

let rec pp_shape ppf = function
  | Leaf -> Fmt.string ppf "s"
  | If (a, b) -> Fmt.pf ppf "if{%a}{%a}" pp_body a pp_body b
  | While b -> Fmt.pf ppf "while{%a}" pp_body b
  | For b -> Fmt.pf ppf "for{%a}" pp_body b

and pp_body ppf = Fmt.(list ~sep:sp pp_shape) ppf

type sproblem = {
  s_body : shape list;
  s_direction : Dataflow.direction;
  s_meet : Dataflow.meet;
  s_names : string list;
  s_top : Varset.t;
  s_gen : Varset.t array;
  s_kill : Varset.t array;
  s_reset : bool array;
}

(* Each bit's gen/kill nodes fall in a window of a few consecutive node
   ids (sometimes the whole graph), so most bits touch a few regions;
   about one node in eight resets, and up to a third of the bits start
   clear (which only Intersect reads). *)
let gen_sproblem =
  QCheck.Gen.(
    let* s_body = gen_body 0 in
    let n = Graph.size (structured s_body) in
    let* width = oneofl [ 3; 40; 64; 130 ] in
    let names = List.init width (Printf.sprintf "v%03d") in
    let* s_direction = oneofl [ Dataflow.Forward; Dataflow.Backward ] in
    let* s_meet = oneofl [ Dataflow.Union; Dataflow.Intersect ] in
    let gen_sets = Array.make n Varset.empty in
    let kill_sets = Array.make n Varset.empty in
    let add sets v name = sets.(v) <- Varset.add name sets.(v) in
    let* events =
      flatten_l
        (List.map
           (fun name ->
             let* wide = frequency [ (1, return true); (7, return false) ] in
             let* start = int_bound (n - 1) in
             let* len = if wide then return n else int_bound 6 in
             let+ picks =
               list_size (int_bound 3) (pair (int_bound len) (int_bound 2))
             in
             List.map
               (fun (d, kind) -> (name, (if wide then d else start + d), kind))
               picks)
           names)
    in
    List.iter
      (List.iter (fun (name, v, kind) ->
           if v < n then begin
             if kind <> 1 then add gen_sets v name;
             if kind <> 0 then add kill_sets v name
           end))
      events;
    let* s_reset =
      array_size (return n) (frequency [ (1, return true); (7, return false) ])
    in
    let+ clear =
      list_size (int_bound (width / 3 + 1)) (oneofl names)
    in
    { s_body; s_direction; s_meet; s_names = names;
      s_top = Varset.diff (Varset.of_list names) (Varset.of_list clear);
      s_gen = gen_sets; s_kill = kill_sets; s_reset })

let print_sproblem p =
  Fmt.str "%d names, %s %s, resets %a, body %a" (List.length p.s_names)
    (direction_name p.s_direction) (meet_name p.s_meet)
    Fmt.(list ~sep:comma int)
    (List.filter
       (fun v -> p.s_reset.(v))
       (List.init (Array.length p.s_reset) Fun.id))
    pp_body p.s_body

(* Property: on graphs shaped like [Tcfg.build]'s — which the plan cuts
   into regions — every node's input and output of every bit match the
   naive solver's. *)
let dataflow_structured =
  QCheck.Test.make ~count:500
    ~name:"region solver agrees with the reference on structured graphs"
    (QCheck.make ~print:print_sproblem gen_sproblem) (fun p ->
      let g = structured p.s_body in
      let solve_with f =
        f g ~direction:p.s_direction ~meet:p.s_meet ~top:p.s_top
          ~gen:p.s_gen ~kill:p.s_kill ~reset:p.s_reset
      in
      let input, output = solve_with (solve_sets ~names:p.s_names) in
      let ref_input, ref_output = solve_with reference in
      Array.for_all2 Varset.equal input ref_input
      && Array.for_all2 Varset.equal output ref_output)

(* One bit "x" with gen/kill at the given nodes, no resets unless given. *)
let one_bit ?(reset = []) g ~direction ~meet ~top ~gen ~kill =
  let n = Graph.size g in
  let at nodes =
    Array.init n (fun v ->
        if List.mem v nodes then Varset.singleton "x" else Varset.empty)
  in
  let top = if top then Varset.singleton "x" else Varset.empty in
  let reset = Array.init n (fun v -> List.mem v reset) in
  let gen = at gen and kill = at kill in
  let solved =
    solve_sets g ~direction ~meet ~names:[ "x" ] ~top ~gen ~kill ~reset
  in
  let expected = reference g ~direction ~meet ~top ~gen ~kill ~reset in
  let bits (input, output) =
    Array.to_list
      (Array.map2
         (fun i o -> (Varset.mem "x" i, Varset.mem "x" o))
         input output)
  in
  Alcotest.(check (list (pair bool bool)))
    "every node as the reference" (bits expected) (bits solved);
  bits solved

(* A backward bit queried before its group in program order — after it
   in flow order: a liveness-style use at the last leaf is live at every
   node before it, through the loop, up to a reset. *)
let test_dataflow_backward_before_group () =
  (* 0 entry, 1 leaf, 2 while, 3 body leaf, 4 leaf, 5 leaf, 6 exit *)
  let g = structured [ Leaf; While [ Leaf ]; Leaf; Leaf ] in
  Alcotest.(check bool) "several regions" true
    (Dataflow.regions (Dataflow.plan g) > 3);
  let live =
    one_bit g ~direction:Dataflow.Backward ~meet:Dataflow.Union ~top:true
      ~gen:[ 5 ] ~kill:[]
  in
  Alcotest.(check (list bool)) "inputs: live after every node before the use"
    [ true; true; true; true; true; false; false ] (List.map fst live);
  let cut =
    one_bit ~reset:[ 3 ] g ~direction:Dataflow.Backward ~meet:Dataflow.Union
      ~top:true ~gen:[ 5 ] ~kill:[]
  in
  (* the loop's exit edge still carries it past the reset in its body *)
  Alcotest.(check (list bool)) "outputs with a reset in the loop body"
    [ true; true; true; false; true; true; false ] (List.map snd cut)

(* An Intersect bit with [top] clear, queried inside a loop after its
   group: the loop's back edge starts empty and nothing gens the bit
   there, so it reads empty, not the outflow — unlike the same bit from a
   full [top]. *)
let test_dataflow_top_clear_loop () =
  (* 0 entry, 1 leaf (gen), 2 leaf, 3 while, 4 body leaf, 5 leaf, 6 exit *)
  let g = structured [ Leaf; Leaf; While [ Leaf ]; Leaf ] in
  Alcotest.(check bool) "several regions" true
    (Dataflow.regions (Dataflow.plan g) > 3);
  let solve top =
    List.map fst
      (one_bit g ~direction:Dataflow.Forward ~meet:Dataflow.Intersect ~top
         ~gen:[ 1 ] ~kill:[])
  in
  Alcotest.(check (list bool)) "top clear: empty from the loop on"
    [ false; false; true; false; false; false; false ] (solve false);
  Alcotest.(check (list bool)) "top set: the outflow everywhere after"
    [ false; false; true; true; true; true; true ] (solve true)

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
    QCheck_alcotest.to_alcotest dataflow_reference;
    QCheck_alcotest.to_alcotest dataflow_structured;
    Alcotest.test_case "dataflow: backward bit before its group" `Quick
      test_dataflow_backward_before_group;
    Alcotest.test_case "dataflow: top-clear bit in a later loop" `Quick
      test_dataflow_top_clear_loop ]
