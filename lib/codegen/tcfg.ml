(** Control-flow graph over translated programs, with per-node, per-device
    access sets — the substrate of the paper's dataflow analyses.

    Break/continue inside translated host loops are not given CFG edges (the
    analyses treat loops structurally); this matches the structured benchmark
    code OpenARC targets and errs conservatively elsewhere. *)

open Minic
open Analysis
open Tprog

type node_kind =
  | Nentry
  | Nexit
  | Nstmt of tstmt  (** leaf translated statement *)
  | Ncond of Ast.expr  (** if/while/for condition *)
  | Nhost_frag of Ast.stmt  (** loop init/step fragment *)

type t = {
  plan : Dataflow.plan;
      (** the graph's only adjacency, cut into regions: each top-level
          statement of [main] is one, because nodes are numbered in
          program order *)
  payload : node_kind array;
  owner : int array;
      (** tid of the tstmt a node belongs to (the anchor for inserting
          checks); -1 for entry/exit *)
  loops_of : int list array;
      (** tids of the loop tstmts enclosing a node, innermost first *)
  entry : int;
  exit_ : int;
}

let payload t n = t.payload.(n)

(** Number of nodes; their ids are [0 .. size t - 1]. *)
let size t = Array.length t.payload

(* The graph under construction: its edges so far, and its per-node
   arrays grown by doubling. *)
type builder = {
  mutable n : int;
  mutable edges : (int * int) list;
  mutable kinds : node_kind array;
  mutable owners : int array;
  mutable loops : int list array;
}

let node t kind ~owner ~loops =
  let id = t.n in
  t.n <- id + 1;
  if id >= Array.length t.kinds then begin
    let grow a fill =
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    in
    t.kinds <- grow t.kinds Nentry;
    t.owners <- grow t.owners (-1);
    t.loops <- grow t.loops []
  end;
  t.kinds.(id) <- kind;
  t.owners.(id) <- owner;
  t.loops.(id) <- loops;
  id

let connect t preds n =
  List.iter (fun p -> t.edges <- (p, n) :: t.edges) preds

(* Returns the set of exit predecessors after the statement. [loops] is the
   chain of enclosing loop header nodes. *)
let rec build_stmt t ~loops preds s =
  match s.tkind with
  | Thost _ | Talloc _ | Tfree _ | Txfer _ | Tlaunch _ | Twait _ | Tcheck _ ->
      let n = node t (Nstmt s) ~owner:s.tid ~loops in
      connect t preds n;
      [ n ]
  | Tblock b -> build_seq t ~loops preds b
  | Tif (c, b1, b2) ->
      let nc = node t (Ncond c) ~owner:s.tid ~loops in
      connect t preds nc;
      let p1 = build_seq t ~loops [ nc ] b1 in
      let p2 = build_seq t ~loops [ nc ] b2 in
      let p2 = if b2 = [] then [ nc ] else p2 in
      p1 @ p2
  | Twhile (c, b) ->
      let nc = node t (Ncond c) ~owner:s.tid ~loops in
      connect t preds nc;
      let body_exit = build_seq t ~loops:(s.tid :: loops) [ nc ] b in
      connect t body_exit nc;
      [ nc ]
  | Tfor (init, cond, step, b) ->
      let preds =
        match init with
        | None -> preds
        | Some i ->
            let ni = node t (Nhost_frag i) ~owner:s.tid ~loops in
            connect t preds ni;
            [ ni ]
      in
      let nc =
        node t (Ncond (Option.value cond ~default:(Ast.Eint 1))) ~owner:s.tid
          ~loops
      in
      connect t preds nc;
      let inner_loops = s.tid :: loops in
      let body_exit = build_seq t ~loops:inner_loops [ nc ] b in
      let back =
        match step with
        | None -> body_exit
        | Some st ->
            let ns = node t (Nhost_frag st) ~owner:s.tid ~loops:inner_loops in
            connect t body_exit ns;
            [ ns ]
      in
      connect t back nc;
      [ nc ]

and build_seq t ~loops preds stmts =
  List.fold_left (fun preds s -> build_stmt t ~loops preds s) preds stmts

let build (tp : Tprog.t) =
  let t =
    { n = 0; edges = []; kinds = Array.make 16 Nentry;
      owners = Array.make 16 (-1); loops = Array.make 16 [] }
  in
  let entry = node t Nentry ~owner:(-1) ~loops:[] in
  assert (entry = 0);
  let body_exit = build_seq t ~loops:[] [ entry ] tp.body in
  let exit_ = node t Nexit ~owner:(-1) ~loops:[] in
  connect t body_exit exit_;
  let cut a = Array.sub a 0 t.n in
  { plan = Dataflow.plan t.n t.edges; payload = cut t.kinds;
    owner = cut t.owners; loops_of = cut t.loops; entry; exit_ }

(** {1 Per-node, per-device access sets} *)

type sets = {
  host_read : Varset.t array;
      (** tracked arrays read by genuine host statements (transfers
          excluded) *)
  host_write : Varset.t array;
      (** tracked arrays written by genuine host statements (transfers
          excluded): the events that make the GPU copy stale *)
  kern_read : Varset.t array;  (** tracked arrays a kernel reads *)
  kern_write : Varset.t array;
      (** tracked arrays a kernel writes: the events that make the CPU copy
          stale *)
  h2d : Varset.t array;  (** the tracked array an upload copies *)
  name_read : Varset.t array;
      (** host-accessed array/pointer *names* (unresolved); runtime checks
          placed on names resolve to the dynamic root, which is what lets the
          tool stay precise where static alias analysis cannot *)
  name_write : Varset.t array;
  hidden : Varset.t array;
      (** tracked roots of the ambiguous pointers a host node uses: what a
          compiler that cannot see through unresolved aliases misses *)
  is_kernel : bool array;  (** node is a kernel launch *)
}

(** Compute access sets for every CFG node, restricted to the tracked
    arrays: one {!Regions} scan per host node, resolving pointers through
    the program's alias analysis. *)
let access_sets (tp : Tprog.t) (cfg : t) =
  let n = size cfg in
  let none () = Array.make n Varset.empty in
  let s =
    { host_read = none (); host_write = none (); kern_read = none ();
      kern_write = none (); h2d = none (); name_read = none ();
      name_write = none (); hidden = none (); is_kernel = Array.make n false }
  in
  let tracked v = Varset.mem v tp.tracked in
  let restrict = Varset.filter tracked in
  let alias = tp.alias in
  (* A name is relevant when it may denote a tracked root. *)
  let restrict_names =
    Varset.filter (fun v -> Varset.exists tracked (Alias.resolve alias v))
  in
  let host i st =
    let acc = Regions.of_stmt ~alias st in
    s.host_read.(i) <- restrict acc.Regions.arrays_read;
    s.host_write.(i) <- restrict acc.Regions.arrays_written;
    s.name_read.(i) <- restrict_names acc.Regions.raw_read;
    s.name_write.(i) <- restrict_names acc.Regions.raw_written;
    s.hidden.(i) <-
      Varset.fold
        (fun amb set -> Varset.union (restrict (Alias.resolve alias amb)) set)
        acc.Regions.ambiguous Varset.empty
  in
  for i = 0 to n - 1 do
    match cfg.payload.(i) with
    | Nentry | Nexit -> ()
    | Ncond e -> host i (Ast.mk_stmt (Ast.Sexpr e))
    | Nhost_frag st -> host i st
    | Nstmt ts -> (
        match ts.tkind with
        | Thost st -> host i st
        | Tlaunch (k, _) ->
            let kern = tp.kernels.(k) in
            s.kern_read.(i) <- restrict kern.k_arrays_read;
            s.kern_write.(i) <- restrict kern.k_arrays_written;
            s.is_kernel.(i) <- true
        | Txfer { x_dir = H2D; x_var; _ } when tracked x_var ->
            s.h2d.(i) <- Varset.singleton x_var
        | Txfer _ | Talloc _ | Tfree _ | Twait _ | Tcheck _ | Tif _
        | Twhile _ | Tfor _ | Tblock _ -> ())
  done;
  s

(** The view of a compiler that cannot see through ambiguous pointers
    (the source of Table III's incorrect suggestions): each host node's
    reads and writes without the roots its ambiguous pointers may
    denote. *)
let alias_blind s =
  { s with
    host_read = Array.map2 Varset.diff s.host_read s.hidden;
    host_write = Array.map2 Varset.diff s.host_write s.hidden }
