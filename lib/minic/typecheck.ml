(** Type checker and symbol resolution for Mini-C.

    Besides rejecting ill-typed programs, the checker returns a type
    environment [env] giving every function a map from variable names (params,
    locals, visible globals) to types.  Later compiler phases use it to
    distinguish arrays/pointers from scalars.  Mini-C is deliberately lenient
    about [int]/[float] mixing (implicit conversions, as in C). *)

open Ast

module Smap = Map.Make (String)

type fenv = typ Smap.t

type env = {
  funcs : func Smap.t;
  globals : typ Smap.t;
  vars : fenv Smap.t;  (** per-function: every name in scope anywhere *)
}

(** Builtin functions: name -> (arg count, arg type, result type).
    [Tvoid] argument type means "numeric, either int or float". *)
let builtins =
  [ ("sqrt", (1, Tfloat, Tfloat)); ("fabs", (1, Tfloat, Tfloat));
    ("exp", (1, Tfloat, Tfloat)); ("log", (1, Tfloat, Tfloat));
    ("sin", (1, Tfloat, Tfloat)); ("cos", (1, Tfloat, Tfloat));
    ("pow", (2, Tfloat, Tfloat)); ("floor", (1, Tfloat, Tfloat));
    ("ceil", (1, Tfloat, Tfloat));
    ("min", (2, Tvoid, Tvoid)); ("max", (2, Tvoid, Tvoid));
    ("abs", (1, Tint, Tint));
    ("float", (1, Tvoid, Tfloat)); ("int", (1, Tvoid, Tint));
    (* OpenACC V1.0 runtime library routines (all int -> int) *)
    ("acc_get_num_devices", (1, Tint, Tint));
    ("acc_set_device_type", (1, Tint, Tint));
    ("acc_get_device_type", (0, Tint, Tint));
    ("acc_set_device_num", (2, Tint, Tint));
    ("acc_get_device_num", (1, Tint, Tint));
    ("acc_async_test", (1, Tint, Tint));
    ("acc_async_test_all", (0, Tint, Tint));
    ("acc_async_wait", (1, Tint, Tint));
    ("acc_async_wait_all", (0, Tint, Tint));
    ("acc_init", (1, Tint, Tint));
    ("acc_shutdown", (1, Tint, Tint));
    ("acc_on_device", (1, Tint, Tint)) ]

let rec base_scalar = function
  | Tarr (t, _) -> base_scalar t
  | Tptr t -> base_scalar t
  | t -> t

let is_numeric = function Tint | Tfloat -> true | Tvoid | Tarr _ | Tptr _ -> false
let is_indexable = function Tarr _ | Tptr _ -> true | Tvoid | Tint | Tfloat -> false

let typ_str = function
  | Tvoid -> "void" | Tint -> "int" | Tfloat -> "float"
  | Tarr _ -> "array" | Tptr _ -> "pointer"

type scope = { mutable frames : typ Smap.t list }

let push_frame sc = sc.frames <- Smap.empty :: sc.frames
let pop_frame sc =
  match sc.frames with
  | _ :: rest -> sc.frames <- rest
  | [] -> invalid_arg "Typecheck.pop_frame"

let lookup sc name =
  let rec go = function
    | [] -> None
    | fr :: rest -> (
        match Smap.find_opt name fr with Some t -> Some t | None -> go rest)
  in
  go sc.frames

let declare ~loc sc name typ =
  match sc.frames with
  | [] -> invalid_arg "Typecheck.declare"
  | fr :: rest ->
      if Smap.mem name fr then
        Loc.error loc "variable '%s' redeclared in the same scope" name;
      sc.frames <- Smap.add name typ fr :: rest

(* Check a program; raise [Loc.Error] on the first problem. *)
let check (prog : Ast.program) =
  let funcs =
    List.fold_left
      (fun acc -> function
        | Gfunc f ->
            if Smap.mem f.f_name acc then
              Loc.error f.f_loc "function '%s' redefined" f.f_name;
            Smap.add f.f_name f acc
        | Gvar _ -> acc)
      Smap.empty prog.globals
  in
  let globals =
    List.fold_left
      (fun acc -> function
        | Gvar (t, name, _) -> Smap.add name t acc
        | Gfunc _ -> acc)
      Smap.empty prog.globals
  in
  let all_vars = ref Smap.empty in

  let check_function f =
    let seen = ref Smap.empty in
    let sc = { frames = [ globals ] } in
    push_frame sc;
    let record name typ = seen := Smap.add name typ !seen in
    Smap.iter (fun name typ -> record name typ) globals;
    List.iter
      (fun p ->
        declare ~loc:f.f_loc sc p.p_name p.p_typ;
        record p.p_name p.p_typ)
      f.f_params;

    let rec expr_type ~loc e =
      match e with
      | Eint _ -> Tint
      | Efloat _ -> Tfloat
      | Evar v -> (
          match lookup sc v with
          | Some t -> t
          | None -> Loc.error loc "undeclared variable '%s'" v)
      | Eindex (a, i) ->
          let ta = expr_type ~loc a in
          let ti = expr_type ~loc i in
          if not (is_indexable ta) then
            Loc.error loc "indexing a non-array value of type %s" (typ_str ta);
          if ti <> Tint then
            Loc.error loc "array index must be int, found %s" (typ_str ti);
          (match ta with
          | Tarr (t, _) | Tptr t -> t
          | Tvoid | Tint | Tfloat -> assert false)
      | Eunop (Neg, a) ->
          let t = expr_type ~loc a in
          if not (is_numeric t) then
            Loc.error loc "negation of non-numeric %s" (typ_str t);
          t
      | Eunop (Not, a) ->
          let t = expr_type ~loc a in
          if not (is_numeric t) then
            Loc.error loc "logical not of non-numeric %s" (typ_str t);
          Tint
      | Ebinop (op, a, b) -> (
          let ta = expr_type ~loc a and tb = expr_type ~loc b in
          match op with
          | Add | Sub | Mul | Div | Mod ->
              if not (is_numeric ta && is_numeric tb) then
                Loc.error loc "arithmetic on non-numeric operands (%s, %s)"
                  (typ_str ta) (typ_str tb);
              if op = Mod && (ta <> Tint || tb <> Tint) then
                Loc.error loc "'%%' requires int operands";
              if ta = Tfloat || tb = Tfloat then Tfloat else Tint
          | Lt | Le | Gt | Ge | Eq | Ne ->
              if not (is_numeric ta && is_numeric tb) then
                Loc.error loc "comparison of non-numeric operands";
              Tint
          | Land | Lor ->
              if not (is_numeric ta && is_numeric tb) then
                Loc.error loc "logical op on non-numeric operands";
              Tint)
      | Ecall (name, args) -> (
          match List.assoc_opt name builtins with
          | Some (arity, argt, ret) ->
              if List.length args <> arity then
                Loc.error loc "builtin '%s' expects %d argument(s)" name arity;
              let targs = List.map (expr_type ~loc) args in
              List.iter
                (fun t ->
                  if not (is_numeric t) then
                    Loc.error loc "builtin '%s' applied to %s" name (typ_str t))
                targs;
              ignore argt;
              if ret = Tvoid then
                if List.exists (fun t -> t = Tfloat) targs then Tfloat else Tint
              else ret
          | None -> (
              match Smap.find_opt name funcs with
              | None -> Loc.error loc "call to undefined function '%s'" name
              | Some callee ->
                  if List.length args <> List.length callee.f_params then
                    Loc.error loc "function '%s' expects %d argument(s)" name
                      (List.length callee.f_params);
                  List.iter2
                    (fun arg p ->
                      let t = expr_type ~loc arg in
                      match (t, p.p_typ) with
                      | (Tint | Tfloat), (Tint | Tfloat) -> ()
                      | (Tarr (a, _) | Tptr a), (Tarr (b, _) | Tptr b)
                        when base_scalar a = base_scalar b -> ()
                      | _ ->
                          Loc.error loc
                            "argument type mismatch in call to '%s' (%s vs %s)"
                            name (typ_str t) (typ_str p.p_typ))
                    args callee.f_params;
                  callee.f_ret))
      | Econd (c, a, b) ->
          let tc = expr_type ~loc c in
          if not (is_numeric tc) then
            Loc.error loc "condition must be numeric";
          let ta = expr_type ~loc a and tb = expr_type ~loc b in
          if not (is_numeric ta && is_numeric tb) then
            Loc.error loc "branches of ?: must be numeric";
          if ta = Tfloat || tb = Tfloat then Tfloat else Tint
    in

    let rec lvalue_type ~loc = function
      | Lvar v -> (
          match lookup sc v with
          | Some t -> t
          | None -> Loc.error loc "undeclared variable '%s'" v)
      | Lindex (lv, i) -> (
          let t = lvalue_type ~loc lv in
          let ti = expr_type ~loc i in
          if ti <> Tint then Loc.error loc "array index must be int";
          match t with
          | Tarr (b, _) | Tptr b -> b
          | Tvoid | Tint | Tfloat ->
              Loc.error loc "indexing a non-array lvalue")
    in

    let check_var_exists ~loc v =
      if lookup sc v = None then
        Loc.error loc "directive references undeclared variable '%s'" v
    in
    let check_subarrays ~loc subs =
      List.iter
        (fun sa ->
          check_var_exists ~loc sa.sub_var;
          Option.iter (fun e -> ignore (expr_type ~loc e)) sa.sub_lo;
          Option.iter (fun e -> ignore (expr_type ~loc e)) sa.sub_len)
        subs
    in
    let check_clause ~loc = function
      | Cdata (_, subs) | Chost subs | Cdevice subs ->
          check_subarrays ~loc subs
      | Cprivate vs | Cfirstprivate vs | Creduction (_, vs) | Cuse_device vs ->
          List.iter (check_var_exists ~loc) vs
      | Cgang e | Cworker e | Cvector e | Casync e ->
          Option.iter (fun e -> ignore (expr_type ~loc e)) e
      | Cnum_gangs e | Cnum_workers e | Cvector_length e | Cif e ->
          ignore (expr_type ~loc e)
      | Ccollapse _ | Cseq | Cindependent -> ()
    in

    let rec check_stmt s =
      let loc = s.sloc in
      match s.skind with
      | Sskip | Sbreak | Scontinue -> ()
      | Sexpr e -> ignore (expr_type ~loc e)
      | Sassign (lv, e) ->
          let tl = lvalue_type ~loc lv in
          let te = expr_type ~loc e in
          (match (tl, te) with
          | (Tint | Tfloat), (Tint | Tfloat) -> ()
          | (Tptr a | Tarr (a, _)), (Tptr b | Tarr (b, _))
            when base_scalar a = base_scalar b -> ()
          | _ ->
              Loc.error loc "cannot assign %s to %s" (typ_str te) (typ_str tl))
      | Sdecl (typ, name, init) ->
          let rec check_extents = function
            | Tarr (t, ext) ->
                Option.iter
                  (fun e ->
                    if expr_type ~loc e <> Tint then
                      Loc.error loc "array extent must be int")
                  ext;
                check_extents t
            | Tptr t -> check_extents t
            | Tvoid | Tint | Tfloat -> ()
          in
          check_extents typ;
          Option.iter
            (fun e ->
              let te = expr_type ~loc e in
              match (typ, te) with
              | (Tint | Tfloat), (Tint | Tfloat) -> ()
              | (Tptr a | Tarr (a, _)), (Tptr b | Tarr (b, _))
                when base_scalar a = base_scalar b -> ()
              | _ ->
                  Loc.error loc "initializer type mismatch for '%s'" name)
            init;
          declare ~loc sc name typ;
          record name typ
      | Sif (c, b1, b2) ->
          ignore (expr_type ~loc c);
          check_block b1;
          check_block b2
      | Swhile (c, b) ->
          ignore (expr_type ~loc c);
          check_block b
      | Sfor (init, cond, step, b) ->
          push_frame sc;
          Option.iter check_stmt init;
          Option.iter (fun e -> ignore (expr_type ~loc e)) cond;
          Option.iter check_stmt step;
          check_block ~new_frame:false b;
          pop_frame sc
      | Sblock b -> check_block b
      | Sreturn e -> Option.iter (fun e -> ignore (expr_type ~loc e)) e
      | Sacc (d, body) ->
          List.iter (check_clause ~loc:d.dloc) d.clauses;
          (match d.dir with
          | Acc_wait (Some e) -> ignore (expr_type ~loc:d.dloc e)
          | Acc_cache subs -> check_subarrays ~loc:d.dloc subs
          | _ -> ());
          Option.iter check_stmt body
    and check_block ?(new_frame = true) b =
      if new_frame then push_frame sc;
      List.iter check_stmt b;
      if new_frame then pop_frame sc
    in
    check_block ~new_frame:false f.f_body;
    all_vars := Smap.add f.f_name !seen !all_vars
  in

  List.iter check_function (functions prog);
  if not (Smap.mem "main" funcs) then
    Loc.error
      (match functions prog with f :: _ -> f.f_loc | [] -> Loc.dummy)
      "program has no 'main' function";
  { funcs; globals; vars = !all_vars }

(** Types of all names in scope in [fname] ([main] included globals). *)
let function_vars env fname =
  match Smap.find_opt fname env.vars with
  | Some m -> m
  | None -> invalid_arg ("Typecheck.function_vars: unknown function " ^ fname)

let var_type env fname v = Smap.find_opt v (function_vars env fname)

let is_array_var env fname v =
  match var_type env fname v with
  | Some (Tarr _ | Tptr _) -> true
  | Some _ | None -> false
