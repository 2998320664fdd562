(** Small mutable digraph used as the CFG carrier for dataflow analyses.
    Nodes are dense integer ids [0 .. n-1]; payloads live with the client. *)

type t = {
  mutable n : int;
  mutable succs : int list array;
  mutable preds : int list array;
}

let create () = { n = 0; succs = Array.make 16 []; preds = Array.make 16 [] }

let grow g needed =
  if needed > Array.length g.succs then begin
    let cap = max needed (2 * Array.length g.succs) in
    let s = Array.make cap [] and p = Array.make cap [] in
    Array.blit g.succs 0 s 0 g.n;
    Array.blit g.preds 0 p 0 g.n;
    g.succs <- s;
    g.preds <- p
  end

(** Allocate a fresh node and return its id. *)
let add_node g =
  grow g (g.n + 1);
  let id = g.n in
  g.n <- g.n + 1;
  id

let add_edge g a b =
  if a < 0 || b < 0 || a >= g.n || b >= g.n then
    invalid_arg "Graph.add_edge: node out of range";
  if not (List.mem b g.succs.(a)) then begin
    g.succs.(a) <- b :: g.succs.(a);
    g.preds.(b) <- a :: g.preds.(b)
  end

let size g = g.n
let succs g i = g.succs.(i)
let preds g i = g.preds.(i)

let nodes g = Array.init g.n (fun i -> i)

(** Nodes in reverse postorder from [entry] (good sweep order for forward
    analyses; reverse it for backward ones). Unreachable nodes are appended
    at the end in id order. *)
let reverse_postorder g ~entry =
  let visited = Array.make g.n false in
  let finished = Array.make g.n 0 and k = ref 0 in
  let rec dfs i =
    if not visited.(i) then begin
      visited.(i) <- true;
      List.iter dfs g.succs.(i);
      finished.(!k) <- i;
      incr k
    end
  in
  if g.n > 0 then dfs entry;
  let reachable = !k in
  let order = Array.make g.n 0 in
  for i = 0 to reachable - 1 do
    order.(i) <- finished.(reachable - 1 - i)
  done;
  let next = ref reachable in
  for i = 0 to g.n - 1 do
    if not visited.(i) then begin
      order.(!next) <- i;
      incr next
    end
  done;
  order
