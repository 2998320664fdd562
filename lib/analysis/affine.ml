(** Affine subscript analysis shared by the race linter (cross-iteration
    conflict diagnostics) and the symbolic equivalence tier (disjointness
    obligations for parallel array writes).  Extracted from
    [lib/lint/race.ml]. *)

open Minic.Ast

(* ----------------------- expression utilities ----------------------- *)

let rec expr_vars acc = function
  | Eint _ | Efloat _ -> acc
  | Evar v -> Varset.add v acc
  | Eindex (a, i) -> expr_vars (expr_vars acc a) i
  | Eunop (_, e) -> expr_vars acc e
  | Ebinop (_, a, b) -> expr_vars (expr_vars acc a) b
  | Ecall (_, args) -> List.fold_left expr_vars acc args
  | Econd (c, a, b) -> expr_vars (expr_vars (expr_vars acc c) a) b

let vars_of e = expr_vars Varset.empty e

(* Split [e] into an affine base and a constant offset: [e = base + k]. *)
let rec split_offset = function
  | Ebinop (Add, e, Eint k) | Ebinop (Add, Eint k, e) ->
      let b, k0 = split_offset e in
      (b, k0 + k)
  | Ebinop (Sub, e, Eint k) ->
      let b, k0 = split_offset e in
      (b, k0 - k)
  | e -> (e, 0)

(* Canonical fingerprint of a subscript base, for comparing accesses. *)
let fingerprint = Minic.Pretty.expr_to_string

(* Coefficient of [iv] in [e] when [e] is linear in it; [None] when the
   dependence is not analyzably linear ([i * n], [(i + 1) % n], ...). *)
let rec iv_coeff iv = function
  | Eint _ | Efloat _ -> Some 0
  | Evar v -> Some (if v = iv then 1 else 0)
  | Ebinop (Add, a, b) -> (
      match (iv_coeff iv a, iv_coeff iv b) with
      | Some x, Some y -> Some (x + y)
      | _ -> None)
  | Ebinop (Sub, a, b) -> (
      match (iv_coeff iv a, iv_coeff iv b) with
      | Some x, Some y -> Some (x - y)
      | _ -> None)
  | Ebinop (Mul, Eint k, e) | Ebinop (Mul, e, Eint k) ->
      Option.map (fun x -> k * x) (iv_coeff iv e)
  | Eunop (Neg, e) -> Option.map (fun x -> -x) (iv_coeff iv e)
  | e -> if Varset.mem iv (vars_of e) then None else Some 0

(* ------------------- per-dimension classification ------------------- *)

type dim =
  | Dinv of string
  | Daff of { base : string; off : int; coeff : int option }
  | Dopaque

let classify_dim ~iv ~varying e =
  let vs = vars_of e in
  if Varset.mem iv vs then
    let base, k = split_offset e in
    Daff { base = fingerprint base; off = k; coeff = iv_coeff iv base }
  else if Varset.is_empty (Varset.inter vs varying) then Dinv (fingerprint e)
  else Dopaque

(* ----------------------- whole-access summary ----------------------- *)

type affine = { base : string; offs : int list; coeffs : int option list }

type summary = Invariant | Affine of affine | Opaque

let classify_access ~iv ~varying subs =
  let dims = List.map (classify_dim ~iv ~varying) subs in
  if List.for_all (function Dinv _ -> true | _ -> false) dims then Invariant
  else if List.exists (function Dopaque -> true | _ -> false) dims then
    Opaque
  else
    Affine
      { base =
          String.concat "]["
            (List.map
               (function Dinv f -> f | Daff a -> a.base | Dopaque -> "?")
               dims);
        offs =
          List.map (function Daff a -> a.off | Dinv _ | Dopaque -> 0) dims;
        coeffs =
          List.map
            (function
              | Daff a -> a.coeff | Dinv _ -> Some 0 | Dopaque -> None)
            dims }

(* Can access [a] at iteration [x] and access [b] at iteration [x + d],
   [d <> 0], touch the same element?  Requires identical per-dimension
   bases; then every dimension demands [coeff_k * d = off_b_k - off_a_k].
   A dimension with an unknown coefficient is conservatively satisfiable
   whenever it needs a shift at all. *)
let conflicting a b =
  a.base = b.base
  && List.length a.offs = List.length b.offs
  &&
  let rec solve delta possible = function
    | [] -> ( match delta with Some d -> d <> 0 | None -> possible)
    | (c, oa, ob) :: rest -> (
        let dk = ob - oa in
        match c with
        | Some 0 -> dk = 0 && solve delta possible rest
        | Some c ->
            dk mod c = 0
            &&
            let d = dk / c in
            (match delta with
            | Some d' -> d' = d && solve delta possible rest
            | None -> solve (Some d) possible rest)
        | None -> solve delta (possible || dk <> 0) rest)
  in
  solve None false
    (List.map2
       (fun c (oa, ob) -> (c, oa, ob))
       a.coeffs
       (List.combine a.offs b.offs))

(* ------------------------ array access walk ------------------------- *)

type access = { a_arr : string; a_subs : expr list; a_write : bool }

(* Subscripts of an access whose base is a plain variable,
   outermost-first. *)
let rec expr_root_subs acc = function
  | Eindex (Evar a, i) -> Some (a, i :: acc)
  | Eindex (e, i) -> expr_root_subs (i :: acc) e
  | _ -> None

let rec lvalue_root_subs acc = function
  | Lindex (Lvar a, i) -> Some (a, i :: acc)
  | Lindex (lv, i) -> lvalue_root_subs (i :: acc) lv
  | Lvar _ -> None

let accesses_of_block block =
  let acc = ref [] in
  let push a = acc := a :: !acc in
  let rec expr e =
    match e with
    | Eint _ | Efloat _ | Evar _ -> ()
    | Eindex (a, i) -> (
        match expr_root_subs [] e with
        | Some (arr, subs) ->
            push { a_arr = arr; a_subs = subs; a_write = false };
            List.iter expr subs
        | None -> expr a; expr i)
    | Eunop (_, e) -> expr e
    | Ebinop (_, a, b) -> expr a; expr b
    | Ecall (_, args) -> List.iter expr args
    | Econd (c, a, b) -> expr c; expr a; expr b
  in
  let lvalue lv =
    match lvalue_root_subs [] lv with
    | Some (arr, subs) ->
        push { a_arr = arr; a_subs = subs; a_write = true };
        List.iter expr subs
    | None -> ()
  in
  let rec stmt s =
    match s.skind with
    | Sskip | Sbreak | Scontinue -> ()
    | Sexpr e -> expr e
    | Sassign (lv, e) -> lvalue lv; expr e
    | Sdecl (_, _, e) -> Option.iter expr e
    | Sreturn e -> Option.iter expr e
    | Sif (c, b1, b2) -> expr c; List.iter stmt b1; List.iter stmt b2
    | Swhile (c, b) -> expr c; List.iter stmt b
    | Sfor (i, c, st, b) ->
        Option.iter stmt i; Option.iter expr c; Option.iter stmt st;
        List.iter stmt b
    | Sblock b -> List.iter stmt b
    | Sacc (_, body) -> Option.iter stmt body
  in
  List.iter stmt block;
  List.rev !acc
