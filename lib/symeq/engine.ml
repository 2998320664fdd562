(** Symbolic kernel-equivalence engine.  See engine.mli for the verdict
    contract.

    The engine executes one parallel iteration of the kernel body
    symbolically, producing a normal form for every committed scalar and
    a guarded, quantified write effect for every array store.  Inner
    sequential loops are summarized by a trial execution against carry
    markers: a pure accumulation becomes a big-operator sum, a
    carry-free recomputation is collapsed to its last iteration, and
    anything else is folded into an opaque-but-deterministic atom.  The
    per-iteration forms are then compared against what the retained
    sequential region computes; the only differences between the two
    executions are (a) scalar state carried across iterations, which the
    device resets, and (b) the iteration order of array stores, which
    only matters when subscripts overlap across iterations.  Both are
    decided on the normal forms. *)

open Minic.Ast
module T = Codegen.Tprog
module A = Analysis.Affine
module V = Analysis.Varset
module SM = Map.Make (String)

type certificate = {
  c_objects : (string * string) list;
  c_hypotheses : string list;
  c_notes : string list;
}

type refutation = {
  r_object : string;
  r_device : string;
  r_sequential : string;
  r_index : int option;
  r_witness : string;
}

type verdict =
  | Proved of certificate
  | Disproved of refutation
  | Unknown of string

type kernel_verdict = { kv_name : string; kv_verdict : verdict }

type t = {
  kernels : kernel_verdict list;
  proved : int;
  disproved : int;
  unknown : int;
}

let verdict_name = function
  | Proved _ -> "proved"
  | Disproved _ -> "disproved"
  | Unknown _ -> "unknown"

(* Raised anywhere the kernel leaves the provable fragment; the payload
   becomes the [Unknown] reason. *)
exception Outside of string

(* --------------------------- syntactic scans ------------------------- *)

let rec assigned_stmt acc s =
  match s.skind with
  | Sassign (Lvar v, _) -> V.add v acc
  | Sassign (Lindex _, _) | Sskip | Sexpr _ | Sdecl _ | Sreturn _ | Sbreak
  | Scontinue ->
      acc
  | Sif (_, b1, b2) -> assigned_block (assigned_block acc b1) b2
  | Swhile (_, b) -> assigned_block acc b
  | Sfor (init, _, step, b) ->
      let acc =
        List.fold_left assigned_stmt acc (List.filter_map Fun.id [ init; step ])
      in
      assigned_block acc b
  | Sblock b -> assigned_block acc b
  | Sacc (_, body) -> Option.fold ~none:acc ~some:(assigned_stmt acc) body

and assigned_block acc b = List.fold_left assigned_stmt acc b

let rec declared_stmt acc s =
  match s.skind with
  | Sdecl (_, v, _) -> V.add v acc
  | Sassign _ | Sskip | Sexpr _ | Sreturn _ | Sbreak | Scontinue -> acc
  | Sif (_, b1, b2) -> declared_block (declared_block acc b1) b2
  | Swhile (_, b) -> declared_block acc b
  | Sfor (init, _, step, b) ->
      let acc =
        List.fold_left declared_stmt acc (List.filter_map Fun.id [ init; step ])
      in
      declared_block acc b
  | Sblock b -> declared_block acc b
  | Sacc (_, body) -> Option.fold ~none:acc ~some:(declared_stmt acc) body

and declared_block acc b = List.fold_left declared_stmt acc b

(* Scalar names an expression reads: array base names are skipped, their
   subscripts are included. *)
let rec expr_reads acc e =
  match e with
  | Eint _ | Efloat _ -> acc
  | Evar v -> V.add v acc
  | Eindex (a, i) -> (
      match A.expr_root_subs [] e with
      | Some (_, subs) -> List.fold_left expr_reads acc subs
      | None -> expr_reads (expr_reads acc a) i)
  | Eunop (_, a) -> expr_reads acc a
  | Ebinop (_, a, b) -> expr_reads (expr_reads acc a) b
  | Ecall (_, args) -> List.fold_left expr_reads acc args
  | Econd (c, a, b) -> expr_reads (expr_reads (expr_reads acc c) a) b

let rec lvalue_reads acc = function
  | Lvar _ -> acc
  | Lindex (lv, e) -> lvalue_reads (expr_reads acc e) lv

let rec stmt_reads acc s =
  match s.skind with
  | Sskip | Sbreak | Scontinue -> acc
  | Sexpr e -> expr_reads acc e
  | Sassign (lv, e) -> lvalue_reads (expr_reads acc e) lv
  | Sdecl (_, _, init) -> Option.fold ~none:acc ~some:(expr_reads acc) init
  | Sreturn e -> Option.fold ~none:acc ~some:(expr_reads acc) e
  | Sif (c, b1, b2) -> block_reads (block_reads (expr_reads acc c) b1) b2
  | Swhile (c, b) -> block_reads (expr_reads acc c) b
  | Sfor (init, cond, step, b) ->
      let acc =
        List.fold_left stmt_reads acc (List.filter_map Fun.id [ init; step ])
      in
      let acc = Option.fold ~none:acc ~some:(expr_reads acc) cond in
      block_reads acc b
  | Sblock b -> block_reads acc b
  | Sacc (_, body) -> Option.fold ~none:acc ~some:(stmt_reads acc) body

and block_reads acc b = List.fold_left stmt_reads acc b

(* ------------------------- symbolic execution ------------------------ *)

type effect_ = {
  e_arr : string;
  e_subs : Nf.t list;
  e_guards : (Nf.t * bool) list;  (** enclosing branch conditions *)
  e_binds : (string * Nf.t * Nf.t) list;
      (** enclosing inner-loop binders, outermost first *)
  e_val : Nf.t;
}

type senv = {
  st : Nf.t SM.t;  (** scalar name → current normal form *)
  iters : string list;  (** bound iterators, innermost first *)
  binds : (string * Nf.t * Nf.t) list;
  guards : (Nf.t * bool) list;
  written : V.t;  (** arrays written so far in this iteration *)
}

type ctx = { effects : effect_ list ref; inner_used : bool ref }

let lookup env v =
  if List.mem v env.iters then Nf.iter v
  else match SM.find_opt v env.st with Some f -> f | None -> Nf.init v

let nf_lt lo hi = Nf.atom (Nf.Aop (Lt, lo, hi))

let rec conv env e =
  match e with
  | Eint n -> Nf.const (float_of_int n)
  | Efloat x -> Nf.const x
  | Evar v -> lookup env v
  | Eindex _ -> (
      match A.expr_root_subs [] e with
      | Some (arr, subs) ->
          if V.mem arr env.written then
            raise
              (Outside
                 (Fmt.str "read of '%s' after a write to it in the same \
                           iteration" arr));
          Nf.atom (Nf.Aread (arr, List.map (conv env) subs))
      | None -> raise (Outside "array access without a plain base"))
  | Eunop (Neg, a) -> Nf.neg (conv env a)
  | Eunop (Not, a) -> Nf.atom (Nf.Acall ("!", [ conv env a ]))
  | Ebinop (Add, a, b) -> Nf.add (conv env a) (conv env b)
  | Ebinop (Sub, a, b) -> Nf.sub (conv env a) (conv env b)
  | Ebinop (Mul, a, b) -> Nf.mul (conv env a) (conv env b)
  | Ebinop (op, a, b) -> Nf.atom (Nf.Aop (op, conv env a, conv env b))
  | Ecall (f, args) -> Nf.atom (Nf.Acall (f, List.map (conv env) args))
  | Econd (c, a, b) -> Nf.cond (conv env c) (conv env a) (conv env b)

let rec exec env ctx s =
  match s.skind with
  | Sskip -> env
  | Sexpr e ->
      ignore (conv env e);
      env
  | Sdecl (_, v, init) ->
      let f =
        match init with
        | Some e -> conv env e
        | None -> Nf.atom (Nf.Acall ("__undef_" ^ v, []))
      in
      { env with st = SM.add v f env.st }
  | Sassign (Lvar v, e) ->
      if List.mem v env.iters then
        raise (Outside (Fmt.str "loop iterator '%s' mutated in the body" v));
      { env with st = SM.add v (conv env e) env.st }
  | Sassign ((Lindex _ as lv), e) -> (
      match A.lvalue_root_subs [] lv with
      | None -> raise (Outside "array write without a plain base")
      | Some (arr, subs) ->
          let subs = List.map (conv env) subs in
          let value = conv env e in
          ctx.effects :=
            { e_arr = arr;
              e_subs = subs;
              e_guards = env.guards;
              e_binds = env.binds;
              e_val = value }
            :: !(ctx.effects);
          { env with written = V.add arr env.written })
  | Sif (c, b1, b2) ->
      let cn = conv env c in
      let env1 =
        exec_block { env with guards = env.guards @ [ (cn, true) ] } ctx b1
      in
      let env2 =
        exec_block
          { env with
            guards = env.guards @ [ (cn, false) ];
            written = env1.written }
          ctx b2
      in
      let st =
        SM.merge
          (fun v a b ->
            match (a, b) with
            | Some a, Some b ->
                if Nf.equal a b then Some a else Some (Nf.cond cn a b)
            | Some a, None -> Some (Nf.cond cn a (Nf.init v))
            | None, Some b -> Some (Nf.cond cn (Nf.init v) b)
            | None, None -> None)
          env1.st env2.st
      in
      { env with st; written = env2.written }
  | Sblock b -> exec_block env ctx b
  | Sfor (init, cond, step, body) -> (
      match T.for_bounds init cond step with
      | Some (j, lo, hi) -> exec_for env ctx s (j, lo, hi) body
      | None -> raise (Outside "inner loop with an unrecognized header"))
  | Swhile _ -> raise (Outside "while loop in kernel body")
  | Sreturn _ | Sbreak | Scontinue ->
      raise (Outside "unstructured control flow in kernel body")
  | Sacc _ -> raise (Outside "nested directive in kernel body")

and exec_block env ctx b = List.fold_left (fun env s -> exec env ctx s) env b

(* Summarize an inner sequential loop [for (j = lo; j < hi; j++) body].
   The body is executed once against carry markers for every scalar it
   assigns; each such scalar's transfer then either accumulates
   (becomes a big-operator sum), recomputes (collapses to the last
   iteration), or defeats summarization (the whole loop becomes opaque
   fold atoms). *)
and exec_for env ctx s (j, lo_e, hi_e) body =
  if List.mem j env.iters then
    raise (Outside "inner loop shadows an enclosing iterator");
  ctx.inner_used := true;
  let lo = conv env lo_e and hi = conv env hi_e in
  if Nf.mentions_carry lo || Nf.mentions_carry hi then
    raise (Outside "inner-loop bounds depend on loop-carried scalar state");
  let ws = V.diff (assigned_block V.empty body) (declared_block V.empty body) in
  let wl = V.elements ws in
  let trial_ctx = { ctx with effects = ref [] } in
  let trial_env =
    { env with
      st = List.fold_left (fun m w -> SM.add w (Nf.carry w) m) env.st wl;
      iters = j :: env.iters;
      binds = env.binds @ [ (j, lo, hi) ] }
  in
  let out = exec_block trial_env trial_ctx body in
  let entry w = lookup env w in
  let final w =
    match SM.find_opt w out.st with Some f -> f | None -> Nf.carry w
  in
  let classify w =
    let f = final w in
    if Nf.equal f (Nf.carry w) then `Unchanged
    else
      match Nf.split_carry w f with
      | Some g when not (Nf.mentions_carry g) -> `Accum g
      | _ -> if Nf.mentions_carry f then `Fold else `Recompute f
  in
  let cls = List.map (fun w -> (w, classify w)) wl in
  let foldy = List.exists (fun (_, c) -> c = `Fold) cls in
  let st =
    if not foldy then begin
      List.iter
        (fun eff ->
          if
            Nf.mentions_carry eff.e_val
            || List.exists Nf.mentions_carry eff.e_subs
            || List.exists (fun (c, _) -> Nf.mentions_carry c) eff.e_guards
          then
            raise
              (Outside
                 "inner-loop array write depends on loop-carried scalar \
                  state"))
        !(trial_ctx.effects);
      ctx.effects := !(trial_ctx.effects) @ !(ctx.effects);
      List.fold_left
        (fun st (w, c) ->
          match c with
          | `Unchanged -> st
          | `Accum g ->
              SM.add w
                (Nf.add (entry w) (Nf.atom (Nf.Abig (Rsum, j, lo, hi, g))))
                st
          | `Recompute f -> SM.add w (Nf.subst_iter j (Nf.sub hi Nf.one) f) st
          | `Fold -> assert false)
        env.st cls
    end
    else begin
      if !(trial_ctx.effects) <> [] then
        raise (Outside "array writes inside a non-summarizable inner loop");
      (* The fold's inputs: carried scalars the finals actually depend
         on, plus every other scalar the loop reads, all at their
         loop-entry values. *)
      let live_carry w =
        List.exists
          (fun w' ->
            Nf.mentions
              (function Nf.Acarry n -> n = w | _ -> false)
              (final w'))
          wl
      in
      let other_reads =
        V.diff (stmt_reads V.empty s) (V.add j (V.union ws (declared_stmt V.empty s)))
      in
      let args =
        List.filter (fun w -> live_carry w) wl
        @ V.elements other_reads
        |> List.sort_uniq String.compare
        |> List.map (fun n -> (n, lookup env n))
      in
      List.iter
        (fun (_, f) ->
          if Nf.mentions_carry f then
            raise (Outside "nested non-summarizable inner loops"))
        args;
      let fp = Minic.Pretty.stmt_to_string s in
      List.fold_left
        (fun st (w, _) ->
          SM.add w (Nf.atom (Nf.Afold { fp; out = w; iter = j; lo; hi; args })) st)
        env.st cls
    end
  in
  (* The iterator's exit value: [hi] when the loop ran, [lo] otherwise. *)
  let st = SM.add j (Nf.cond (nf_lt lo hi) hi lo) st in
  { env with st; written = out.written }

(* ---------------------- contextual access walk ----------------------- *)

type caccess = {
  ca_subs : expr list;
  ca_write : bool;
  ca_inners : (string * expr * expr) list;
      (** enclosing recognized inner loops, outermost first *)
}

let collect_accesses body =
  let acc = ref [] in
  let push arr a = acc := (arr, a) :: !acc in
  let rec expr inners e =
    match e with
    | Eint _ | Efloat _ | Evar _ -> ()
    | Eindex (a, i) -> (
        match A.expr_root_subs [] e with
        | Some (arr, subs) ->
            push arr { ca_subs = subs; ca_write = false; ca_inners = inners };
            List.iter (expr inners) subs
        | None -> expr inners a; expr inners i)
    | Eunop (_, a) -> expr inners a
    | Ebinop (_, a, b) -> expr inners a; expr inners b
    | Ecall (_, args) -> List.iter (expr inners) args
    | Econd (c, a, b) -> expr inners c; expr inners a; expr inners b
  in
  let lvalue inners lv =
    match A.lvalue_root_subs [] lv with
    | Some (arr, subs) ->
        push arr { ca_subs = subs; ca_write = true; ca_inners = inners };
        List.iter (expr inners) subs
    | None -> ()
  in
  let rec stmt inners s =
    match s.skind with
    | Sskip | Sbreak | Scontinue -> ()
    | Sexpr e -> expr inners e
    | Sassign (lv, e) -> lvalue inners lv; expr inners e
    | Sdecl (_, _, init) -> Option.iter (expr inners) init
    | Sreturn e -> Option.iter (expr inners) e
    | Sif (c, b1, b2) ->
        expr inners c;
        List.iter (stmt inners) b1;
        List.iter (stmt inners) b2
    | Swhile (c, b) -> expr inners c; List.iter (stmt inners) b
    | Sfor (init, cond, step, b) -> (
        Option.iter (stmt inners) init;
        Option.iter (expr inners) cond;
        Option.iter (stmt inners) step;
        match T.for_bounds init cond step with
        | Some bind -> List.iter (stmt (inners @ [ bind ])) b
        | None -> List.iter (stmt inners) b)
    | Sblock b -> List.iter (stmt inners) b
    | Sacc (_, body) -> Option.iter (stmt inners) body
  in
  List.iter (stmt []) body;
  List.rev !acc

(* ------------------- cross-iteration conflict solver ----------------- *)

(* How one subscript dimension of an access behaves across iterations of
   the parallel loop.  Stricter than the race linter's classification:
   an affine base may only involve iteration-invariant names, because a
   [Proved] verdict asserts disjointness rather than reporting a
   possible overlap. *)
type sdim =
  | Sinv of string  (** invariant (fingerprint) *)
  | Saff of { bfp : string; off : int; coeff : int }
      (** [coeff * iv + base + off], base invariant *)
  | Sblock of { bfp : string }
      (** [iv * B + j] with [j ∈ \[0, B)]: iteration-disjoint blocks *)
  | Svar  (** anything else: can coincide with anything *)

let classify_sdim ~iv ~varying ~wnames ~inners e =
  let vs = A.vars_of e in
  if not (V.is_empty (V.inter vs wnames)) then
    (* The subscript reads an array this kernel writes: its value is not
       stable across the execution. *)
    Svar
  else
    let inner_here = List.filter (fun (j, _, _) -> V.mem j vs) inners in
    let base_vs =
      List.fold_left
        (fun s (j, _, _) -> V.remove j s)
        (V.remove iv vs) inner_here
    in
    let base_inv = V.is_empty (V.inter base_vs varying) in
    let has_iv = V.mem iv vs in
    match (has_iv, inner_here) with
    | false, [] -> if base_inv then Sinv (A.fingerprint e) else Svar
    | true, [] ->
        if not base_inv then Svar
        else
          let base, off = A.split_offset e in
          (match A.iv_coeff iv base with
          | Some c when c <> 0 -> Saff { bfp = A.fingerprint base; off; coeff = c }
          | _ -> Svar)
    | true, [ (j, jlo, jhi) ] ->
        if not base_inv then Svar
        else begin
          let base, off = A.split_offset e in
          if off <> 0 then Svar
          else
            let block x y =
              let mul_iv = function
                | Ebinop (Mul, Evar v, b) when v = iv -> Some b
                | Ebinop (Mul, b, Evar v) when v = iv -> Some b
                | _ -> None
              in
              match (x, mul_iv y) with
              | Evar j', Some b
                when j' = j
                     && jlo = Eint 0
                     && A.fingerprint jhi = A.fingerprint b
                     && V.is_empty (V.inter (A.vars_of b) varying) ->
                  Some (Sblock { bfp = A.fingerprint b })
              | _ -> None
            in
            match base with
            | Ebinop (Add, x, y) -> (
                match block x y with
                | Some d -> d
                | None -> ( match block y x with Some d -> d | None -> Svar))
            | _ -> Svar
        end
    | _ -> Svar

(* Can accesses [da] (at iteration x) and [db] (at iteration x + d,
   d ≠ 0) touch the same element?  [`Disjoint] when no shift works,
   [`Hyp hs] when disjointness needs the recorded invariant-subscript
   distinctness assumptions, [`Conflict] otherwise. *)
let solve_pair da db =
  if List.length da <> List.length db then `Conflict
  else begin
    let delta = ref None in
    let hyps = ref [] in
    let constrain d =
      match !delta with
      | None -> delta := Some d
      | Some d' -> if d' <> d then raise Exit
    in
    try
      List.iter2
        (fun a b ->
          match (a, b) with
          | Sinv f1, Sinv f2 -> if f1 <> f2 then hyps := (f1, f2) :: !hyps
          | Saff a1, Saff a2 when a1.bfp = a2.bfp && a1.coeff = a2.coeff ->
              let dk = a2.off - a1.off in
              if dk mod a1.coeff <> 0 then raise Exit
              else constrain (dk / a1.coeff)
          | Sblock b1, Sblock b2 when b1.bfp = b2.bfp ->
              (* distinct iterations own distinct blocks *)
              constrain 0
          | _ -> ())
        da db;
      match !delta with
      | Some 0 -> `Disjoint  (* can only coincide within one iteration *)
      | _ -> if !hyps <> [] then `Hyp !hyps else `Conflict
    with Exit -> `Disjoint
  end

(* ------------------------- commit-rank analysis ---------------------- *)

(* Whether the final sequential iteration is guaranteed to write [v]
   (so the device's commit-from-last-iteration matches): [Ralways]
   unconditionally, [Rinv] under an iteration-invariant condition
   (uniform across iterations, so device and sequential agree either
   way), [Rvarying] under an iteration-dependent one. *)
type rank = Rnever | Ralways | Rinv | Rvarying

let rank_seq a b =
  match (a, b) with
  | _, Ralways | Ralways, _ -> Ralways
  | Rvarying, _ | _, Rvarying -> Rvarying
  | Rinv, _ | _, Rinv -> Rinv
  | Rnever, Rnever -> Rnever

let invariant_expr varying e = V.is_empty (V.inter (A.vars_of e) varying)

let rec rank_stmt v varying s =
  match s.skind with
  | Sassign (Lvar v', _) when v' = v -> Ralways
  | Sassign _ | Sskip | Sexpr _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue ->
      Rnever
  | Sif (c, b1, b2) ->
      let r1 = rank_block v varying b1 and r2 = rank_block v varying b2 in
      if r1 = Rnever && r2 = Rnever then Rnever
      else if r1 = Ralways && r2 = Ralways then Ralways
      else if invariant_expr varying c && r1 <> Rvarying && r2 <> Rvarying then
        Rinv
      else Rvarying
  | Sblock b -> rank_block v varying b
  | Sfor (init, cond, step, body) ->
      let rinit =
        List.fold_left
          (fun acc st -> rank_seq acc (rank_stmt v varying st))
          Rnever
          (List.filter_map Fun.id [ init ])
      in
      let rbody =
        rank_seq
          (rank_block v varying body)
          (match step with Some st -> rank_stmt v varying st | None -> Rnever)
      in
      let rloop =
        if rbody = Rnever then Rnever
        else
          let bounds_inv =
            match T.for_bounds init cond step with
            | Some (_, lo, hi) ->
                invariant_expr varying lo && invariant_expr varying hi
            | None -> false
          in
          if rbody = Rvarying || not bounds_inv then Rvarying else Rinv
      in
      rank_seq rinit rloop
  | Swhile (_, b) ->
      if rank_block v varying b = Rnever then Rnever else Rvarying
  | Sacc (_, body) -> (
      match body with Some s -> rank_stmt v varying s | None -> Rnever)

and rank_block v varying b =
  List.fold_left (fun acc s -> rank_seq acc (rank_stmt v varying s)) Rnever b

(* ----------------------------- verdicts ------------------------------ *)

type ostat =
  | Ok_obj of (string * string) * string list  (* object, notes *)
  | Bad of refutation
  | Dunno of string

let single_atom (f : Nf.t) =
  match f with
  | { Nf.const = 0.0; terms = [ { coeff = 1.0; atoms = [ a ] } ] } -> Some a
  | _ -> None

(* Recognize [v = op(...op(op(v₀, g₁), g₂)..., gₙ)] for a min/max
   reduction written through calls to [fn]. *)
let rec match_minmax fn v f =
  if Nf.equal f (Nf.init v) then Some []
  else
    match single_atom f with
    | Some (Nf.Acall (fn', [ a; b ])) when fn' = fn ->
        let try_order x y =
          match match_minmax fn v x with
          | Some gs when not (Nf.mentions_init v y) -> Some (y :: gs)
          | _ -> None
        in
        (match try_order a b with Some r -> Some r | None -> try_order b a)
    | _ -> None

let lit_int = function Eint n -> Some n | _ -> None

let check_kernel tp (k : T.kernel) =
  let trivial note =
    Proved { c_objects = []; c_hypotheses = []; c_notes = [ note ] }
  in
  match k.T.k_loop with
  | None ->
      trivial
        "single-threaded region: device execution is sequential by \
         construction"
  | Some _ when k.T.k_seq ->
      trivial "seq clause: the device runs the loop on one thread, in order"
  | Some l -> (
      try
        let iv = l.T.kl_var in
        let lo_e, hi_e =
          match T.loop_bounds l with
          | Some b -> b
          | None -> raise (Outside "unrecognized kernel-loop header")
        in
        let assigned = assigned_block V.empty k.T.k_body in
        let declared = declared_block V.empty k.T.k_body in
        let w_all = V.diff assigned declared in
        let varying =
          V.add iv (V.union w_all (V.union declared k.T.k_induction))
        in
        (* Symbolic execution of one parallel iteration. *)
        let ctx = { effects = ref []; inner_used = ref false } in
        let env0 =
          { st = SM.empty;
            iters = [ iv ];
            binds = [];
            guards = [];
            written = V.empty }
        in
        let envf = exec_block env0 ctx k.T.k_body in
        let effects = List.rev !(ctx.effects) in
        let lo_nf = conv env0 lo_e and hi_nf = conv env0 hi_e in
        if
          V.exists
            (fun w -> Nf.mentions_init w lo_nf || Nf.mentions_init w hi_nf)
            w_all
        then raise (Outside "loop bounds read scalars the body writes");
        (* Contextual array accesses + aliasing guard. *)
        let accs = collect_accesses k.T.k_body in
        let wnames =
          List.fold_left
            (fun s (arr, a) -> if a.ca_write then V.add arr s else s)
            V.empty accs
        in
        let anames =
          List.fold_left (fun s (arr, _) -> V.add arr s) V.empty accs
        in
        V.iter
          (fun n ->
            if Analysis.Alias.is_ambiguous tp.T.alias n then
              raise
                (Outside (Fmt.str "'%s' has ambiguous pointer targets" n)))
          anames;
        V.iter
          (fun w ->
            V.iter
              (fun n ->
                if
                  w <> n
                  && not
                       (V.is_empty
                          (V.inter
                             (Analysis.Alias.resolve tp.T.alias w)
                             (Analysis.Alias.resolve tp.T.alias n)))
                then
                  raise
                    (Outside
                       (Fmt.str "written array '%s' may alias '%s'" w n)))
              anames)
          wnames;
        (* --- scalar verdicts --- *)
        let red_note =
          "tree and sequential reduction orders compared over \xe2\x84\x9d; \
           the verification margin absorbs the rounding difference"
        in
        let s_lo = Nf.to_string lo_nf and s_hi = Nf.to_string hi_nf in
        let scalar_status v f =
          let carried = V.filter (fun w -> Nf.mentions_init w f) w_all in
          let cls = List.assoc_opt v k.T.k_scalars in
          match cls with
          | Some (T.Sc_reduction op) -> (
              if not (V.is_empty (V.remove v carried)) then
                Dunno
                  (Fmt.str "%s: reduction transfer reads other written \
                            scalars" v)
              else
                match op with
                | Rsum -> (
                    match Nf.split_init v f with
                    | Some g ->
                        Ok_obj
                          ( ( v,
                              Fmt.str "%s@0 + \xce\xa3{%s \xe2\x88\x88 \
                                       [%s,%s)}(%s)" v iv s_lo s_hi
                                (Nf.to_string g) ),
                            [ red_note ] )
                    | None ->
                        Dunno
                          (Fmt.str "%s: reduction transfer is not a sum \
                                    accumulation" v))
                | (Rmax | Rmin) as op -> (
                    let fn = if op = Rmax then "max" else "min" in
                    match match_minmax fn v f with
                    | Some gs ->
                        Ok_obj
                          ( ( v,
                              Fmt.str "%s{%s@0, %s : %s \xe2\x88\x88 [%s,%s)}"
                                fn v
                                (String.concat ", "
                                   (List.rev_map Nf.to_string gs))
                                iv s_lo s_hi ),
                            [ red_note ] )
                    | None ->
                        Dunno
                          (Fmt.str "%s: reduction transfer is not a %s chain"
                             v fn))
                | _ ->
                    Dunno
                      (Fmt.str
                         "%s: unsupported reduction operator for symbolic \
                          proof" v))
          | _ ->
              if V.is_empty carried then begin
                match rank_block v varying k.T.k_body with
                | Ralways | Rinv ->
                    let notes =
                      match cls with
                      | Some (T.Sc_raced T.Race_latent) ->
                          [ Fmt.str
                              "%s: latent race — write-first shared scalar; \
                               register promotion keeps device and \
                               sequential values equal" v ]
                      | _ -> []
                    in
                    Ok_obj
                      ((v, Nf.to_string f ^ " (value of the last iteration)"),
                       notes)
                | Rvarying ->
                    Dunno
                      (Fmt.str
                         "%s: committed under an iteration-varying condition"
                         v)
                | Rnever ->
                    Dunno (Fmt.str "%s: no reachable write found" v)
              end
              else if V.equal carried (V.singleton v) then
                match Nf.split_init v f with
                | Some g when not (Nf.is_zero g) ->
                    Bad
                      { r_object = v;
                        r_device =
                          Fmt.str "%s@0 + (%s)[%s := %s - 1]" v
                            (Nf.to_string g) iv s_hi;
                        r_sequential =
                          Fmt.str "%s@0 + \xce\xa3{%s \xe2\x88\x88 \
                                   [%s,%s)}(%s)" v iv s_lo s_hi
                            (Nf.to_string g);
                        r_index = lit_int lo_e;
                        r_witness =
                          Fmt.str
                            "unsynchronized accumulation: every device \
                             thread reads %s's kernel-entry value, so only \
                             the last iteration's contribution survives; \
                             the sequential region sums all of them \
                             (distinguishable whenever the loop runs \
                             \xe2\x89\xa5 2 iterations with a nonzero \
                             contribution)" v }
                | _ ->
                    Dunno
                      (Fmt.str "%s: loop-carried scalar dependence" v)
              else
                Dunno
                  (Fmt.str "%s: loop-carried dependence on written scalar%s %s"
                     v
                     (if V.cardinal (V.remove v carried) > 1 then "s" else "")
                     (String.concat ", " (V.elements (V.remove v carried))))
        in
        let scalar_stats =
          List.filter_map
            (fun v ->
              match SM.find_opt v envf.st with
              | Some f -> Some (v, scalar_status v f)
              | None -> None)
            (V.elements w_all)
        in
        let disproved_scalars =
          List.filter_map
            (fun (v, st) -> match st with Bad r -> Some (v, r) | _ -> None)
            scalar_stats
        in
        (* --- array verdicts --- *)
        let eff_mentions pred eff =
          Nf.mentions pred eff.e_val
          || List.exists (Nf.mentions pred) eff.e_subs
          || List.exists (fun (c, _) -> Nf.mentions pred c) eff.e_guards
          || List.exists
               (fun (_, l, h) -> Nf.mentions pred l || Nf.mentions pred h)
               eff.e_binds
        in
        let classify a =
          List.map
            (classify_sdim ~iv ~varying ~wnames ~inners:a.ca_inners)
            a.ca_subs
        in
        let pp_guard (c, pos) =
          if pos then Fmt.str " when %s" (Nf.to_string c)
          else Fmt.str " when \xc2\xac(%s)" (Nf.to_string c)
        in
        let pp_effect eff =
          Fmt.str "\xe2\x88\x80 %s \xe2\x88\x88 [%s,%s)%s%s: %s%s := %s" iv
            s_lo s_hi
            (String.concat ""
               (List.map
                  (fun (j, l, h) ->
                    Fmt.str ", \xe2\x88\x80 %s \xe2\x88\x88 [%s,%s)" j
                      (Nf.to_string l) (Nf.to_string h))
                  eff.e_binds))
            (String.concat "" (List.map pp_guard eff.e_guards))
            eff.e_arr
            (String.concat ""
               (List.map (fun s -> "[" ^ Nf.to_string s ^ "]") eff.e_subs))
            (Nf.to_string eff.e_val)
        in
        let array_status arr =
          let effs = List.filter (fun e -> e.e_arr = arr) effects in
          let carried =
            V.filter
              (fun w ->
                List.exists
                  (eff_mentions (function
                    | Nf.Ainit w' -> w' = w
                    | _ -> false))
                  effs)
              w_all
          in
          match
            List.find_opt (fun (w, _) -> V.mem w carried) disproved_scalars
          with
          | Some (w, r) ->
              Bad
                { r_object = arr;
                  r_device = Fmt.str "%s written from the device value of %s" arr w;
                  r_sequential =
                    Fmt.str "%s written from the sequential value of %s" arr w;
                  r_index = r.r_index;
                  r_witness =
                    Fmt.str
                      "%s stores a value derived from %s, whose device and \
                       sequential values diverge (%s)" arr w r.r_witness }
          | None ->
              if not (V.is_empty carried) then
                Dunno
                  (Fmt.str "%s: stores read loop-carried scalar%s %s" arr
                     (if V.cardinal carried > 1 then "s" else "")
                     (String.concat ", " (V.elements carried)))
              else begin
                let here =
                  List.filter_map
                    (fun (a, acc) -> if a = arr then Some acc else None)
                    accs
                in
                let writes = List.filter (fun a -> a.ca_write) here in
                let wdims = List.map classify writes in
                let rdims =
                  List.map classify (List.filter (fun a -> not a.ca_write) here)
                in
                let hyps = ref [] in
                let conflict = ref None in
                let note_pair kind da db =
                  match solve_pair da db with
                  | `Disjoint -> ()
                  | `Hyp hs -> hyps := hs @ !hyps
                  | `Conflict ->
                      if !conflict = None then conflict := Some kind
                in
                List.iteri
                  (fun i da ->
                    List.iteri
                      (fun i' db ->
                        if i <= i' then note_pair "write-write" da db)
                      wdims)
                  wdims;
                List.iter
                  (fun da ->
                    List.iter (fun db -> note_pair "write-read" da db) rdims)
                  wdims;
                match !conflict with
                | Some kind ->
                    Dunno
                      (Fmt.str
                         "%s: possible cross-iteration %s overlap" arr kind)
                | None ->
                    let hyp_strs =
                      List.sort_uniq String.compare
                        (List.map
                           (fun (f1, f2) ->
                             Fmt.str "%s \xe2\x89\xa0 %s" f1 f2)
                           !hyps)
                    in
                    let body =
                      String.concat "; " (List.map pp_effect effs)
                    in
                    Ok_obj ((arr, body), hyp_strs)
              end
        in
        (* Hypotheses ride along in the notes slot of Ok_obj for arrays;
           split them back out below. *)
        let array_stats =
          List.map (fun arr -> (arr, array_status arr)) (V.elements wnames)
        in
        (* --- assemble --- *)
        let all_stats = scalar_stats @ array_stats in
        let bad =
          List.find_map
            (fun (_, st) -> match st with Bad r -> Some r | _ -> None)
            all_stats
        in
        match bad with
        | Some r -> Disproved r
        | None -> (
            let unknowns =
              List.filter_map
                (fun (_, st) ->
                  match st with Dunno why -> Some why | _ -> None)
                all_stats
            in
            match unknowns with
            | why :: rest ->
                Unknown
                  (if rest = [] then why
                   else Fmt.str "%s (+%d more)" why (List.length rest))
            | [] ->
                let objects =
                  List.filter_map
                    (fun (_, st) ->
                      match st with Ok_obj (o, _) -> Some o | _ -> None)
                    all_stats
                in
                let scalar_notes =
                  List.concat_map
                    (fun (_, st) ->
                      match st with Ok_obj (_, ns) -> ns | _ -> [])
                    scalar_stats
                in
                let hyps =
                  List.concat_map
                    (fun (_, st) ->
                      match st with Ok_obj (_, hs) -> hs | _ -> [])
                    array_stats
                in
                let notes =
                  (if !(ctx.inner_used) then
                     [ "inner-loop closed forms assume the recorded \
                        iteration spaces; an empty inner space leaves the \
                        affected scalars at their entry values under both \
                        executions" ]
                   else [])
                  @ scalar_notes
                in
                Proved
                  { c_objects = objects;
                    c_hypotheses = List.sort_uniq String.compare hyps;
                    c_notes = List.sort_uniq String.compare notes })
      with Outside why -> Unknown why)

let check_tprog tp =
  let kernels =
    Array.to_list tp.T.kernels
    |> List.map (fun k ->
           { kv_name = k.T.k_name; kv_verdict = check_kernel tp k })
  in
  let count p = List.length (List.filter p kernels) in
  { kernels;
    proved = count (fun k -> match k.kv_verdict with Proved _ -> true | _ -> false);
    disproved =
      count (fun k -> match k.kv_verdict with Disproved _ -> true | _ -> false);
    unknown =
      count (fun k -> match k.kv_verdict with Unknown _ -> true | _ -> false) }

let check_program ?(opts = Codegen.Options.default) prog =
  check_tprog
    (Codegen.Translate.translate ~opts (Minic.Typecheck.check prog) prog)

(* ------------------------------ printing ----------------------------- *)

let pp_kernel ppf { kv_name; kv_verdict } =
  match kv_verdict with
  | Proved c ->
      Fmt.pf ppf "[PROVED]    %s" kv_name;
      List.iter
        (fun (obj, form) -> Fmt.pf ppf "@,    %s \xe2\x89\xa1 %s" obj form)
        c.c_objects;
      List.iter (fun h -> Fmt.pf ppf "@,    assuming %s" h) c.c_hypotheses;
      List.iter (fun n -> Fmt.pf ppf "@,    note: %s" n) c.c_notes
  | Disproved r ->
      Fmt.pf ppf "[DISPROVED] %s \xe2\x80\x94 %s" kv_name r.r_object;
      Fmt.pf ppf "@,    device:     %s" r.r_device;
      Fmt.pf ppf "@,    sequential: %s" r.r_sequential;
      (match r.r_index with
      | Some i -> Fmt.pf ppf "@,    witness iteration: %d" i
      | None -> ());
      Fmt.pf ppf "@,    %s" r.r_witness
  | Unknown why ->
      Fmt.pf ppf "[UNKNOWN]   %s \xe2\x80\x94 %s (numeric fallback)" kv_name
        why

let pp ppf t =
  Fmt.pf ppf "@[<v>";
  List.iter (fun k -> Fmt.pf ppf "%a@," pp_kernel k) t.kernels;
  Fmt.pf ppf "%d kernel%s: %d proved, %d disproved, %d unknown@]"
    (List.length t.kernels)
    (if List.length t.kernels = 1 then "" else "s")
    t.proved t.disproved t.unknown
