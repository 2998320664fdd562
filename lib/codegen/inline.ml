(** Inlining of directive-containing functions.

    OpenARC translates whole C programs; our translator is intraprocedural,
    so, like OpenARC's own procedure transformations, functions whose bodies
    contain OpenACC directives are inlined at their call sites first.  Array
    and pointer parameters become pointer aliases of the actual arguments
    (reference semantics); scalars are copied.  To keep the transformation
    structural, an inlinable function may use [return] only as its final
    statement. *)

open Minic
open Minic.Ast

let has_directives f =
  let found = ref false in
  iter_stmts (fun s -> match s.skind with Sacc _ -> found := true | _ -> ())
    f.f_body;
  !found

(* ---------------- alpha renaming ---------------- *)

let rec rename_expr sub = function
  | (Eint _ | Efloat _) as e -> e
  | Evar v -> Evar (Option.value ~default:v (List.assoc_opt v sub))
  | Eindex (a, i) -> Eindex (rename_expr sub a, rename_expr sub i)
  | Eunop (op, a) -> Eunop (op, rename_expr sub a)
  | Ebinop (op, a, b) -> Ebinop (op, rename_expr sub a, rename_expr sub b)
  | Ecall (f, args) -> Ecall (f, List.map (rename_expr sub) args)
  | Econd (c, a, b) ->
      Econd (rename_expr sub c, rename_expr sub a, rename_expr sub b)

let rec rename_lvalue sub = function
  | Lvar v -> Lvar (Option.value ~default:v (List.assoc_opt v sub))
  | Lindex (lv, e) -> Lindex (rename_lvalue sub lv, rename_expr sub e)

let rename_var sub v = Option.value ~default:v (List.assoc_opt v sub)

let rename_subarray sub sa =
  { sub_var = rename_var sub sa.sub_var;
    sub_lo = Option.map (rename_expr sub) sa.sub_lo;
    sub_len = Option.map (rename_expr sub) sa.sub_len }

let rename_clause sub = function
  | Cdata (k, subs) -> Cdata (k, List.map (rename_subarray sub) subs)
  | Cprivate vs -> Cprivate (List.map (rename_var sub) vs)
  | Cfirstprivate vs -> Cfirstprivate (List.map (rename_var sub) vs)
  | Creduction (op, vs) -> Creduction (op, List.map (rename_var sub) vs)
  | Cgang e -> Cgang (Option.map (rename_expr sub) e)
  | Cworker e -> Cworker (Option.map (rename_expr sub) e)
  | Cvector e -> Cvector (Option.map (rename_expr sub) e)
  | Cnum_gangs e -> Cnum_gangs (rename_expr sub e)
  | Cnum_workers e -> Cnum_workers (rename_expr sub e)
  | Cvector_length e -> Cvector_length (rename_expr sub e)
  | Casync e -> Casync (Option.map (rename_expr sub) e)
  | Cif e -> Cif (rename_expr sub e)
  | (Ccollapse _ | Cseq | Cindependent) as c -> c
  | Chost subs -> Chost (List.map (rename_subarray sub) subs)
  | Cdevice subs -> Cdevice (List.map (rename_subarray sub) subs)
  | Cuse_device vs -> Cuse_device (List.map (rename_var sub) vs)

let rename_directive sub d =
  let dir =
    match d.dir with
    | Acc_wait e -> Acc_wait (Option.map (rename_expr sub) e)
    | Acc_cache subs -> Acc_cache (List.map (rename_subarray sub) subs)
    | c -> c
  in
  { d with dir; clauses = List.map (rename_clause sub) d.clauses }

let rec rename_stmt sub s =
  let skind =
    match s.skind with
    | Sskip | Sbreak | Scontinue -> s.skind
    | Sexpr e -> Sexpr (rename_expr sub e)
    | Sassign (lv, e) -> Sassign (rename_lvalue sub lv, rename_expr sub e)
    | Sdecl (t, v, init) ->
        Sdecl (rename_typ sub t, rename_var sub v,
               Option.map (rename_expr sub) init)
    | Sif (c, b1, b2) ->
        Sif (rename_expr sub c, List.map (rename_stmt sub) b1,
             List.map (rename_stmt sub) b2)
    | Swhile (c, b) -> Swhile (rename_expr sub c, List.map (rename_stmt sub) b)
    | Sfor (i, c, st, b) ->
        Sfor (Option.map (rename_stmt sub) i, Option.map (rename_expr sub) c,
              Option.map (rename_stmt sub) st, List.map (rename_stmt sub) b)
    | Sblock b -> Sblock (List.map (rename_stmt sub) b)
    | Sreturn e -> Sreturn (Option.map (rename_expr sub) e)
    | Sacc (d, body) ->
        Sacc (rename_directive sub d, Option.map (rename_stmt sub) body)
  in
  mk_stmt ~loc:s.sloc skind

and rename_typ sub = function
  | Tarr (t, ext) -> Tarr (rename_typ sub t, Option.map (rename_expr sub) ext)
  | (Tvoid | Tint | Tfloat) as t -> t
  | Tptr t -> Tptr (rename_typ sub t)

(* Names declared anywhere inside the function body. *)
let declared_names f =
  let acc = ref [] in
  iter_stmts
    (fun s ->
      match s.skind with
      | Sdecl (_, v, _) -> acc := v :: !acc
      | Sfor (Some { skind = Sdecl (_, v, _); _ }, _, _, _) ->
          acc := v :: !acc
      | _ -> ())
    f.f_body;
  !acc

(* Build the inlined statement list for a call [f(args)], optionally
   assigning the return value to [result].  [calls] counts the calls
   inlined so far; this one's names carry its number. *)
let expand_call ~calls ~(callee : func) ~args ~result ~loc =
  incr calls;
  let fresh v = Fmt.str "%s__%d_%s" callee.f_name !calls v in
  (* Only the trailing statement may be a return. *)
  let body, ret_expr =
    match List.rev callee.f_body with
    | { skind = Sreturn e; _ } :: rest_rev -> (List.rev rest_rev, e)
    | _ -> (callee.f_body, None)
  in
  iter_stmts
    (fun s ->
      match s.skind with
      | Sreturn _ ->
          Loc.error loc
            "cannot inline '%s': return statements are only supported as \
             the final statement of a directive-containing function"
            callee.f_name
      | _ -> ())
    body;
  let sub =
    List.map (fun p -> (p.p_name, fresh p.p_name)) callee.f_params
    @ List.map (fun v -> (v, fresh v)) (declared_names callee)
  in
  let bind_param p arg =
    let pname = rename_var sub p.p_name in
    match p.p_typ with
    | Tarr (base, _) | Tptr base -> (
        match arg with
        | Evar a ->
            (* reference semantics through a pointer alias *)
            mk_stmt ~loc (Sdecl (Tptr (rename_typ sub base), pname,
                                 Some (Evar a)))
        | _ ->
            Loc.error loc
              "cannot inline '%s': array argument must be a variable"
              callee.f_name)
    | (Tvoid | Tint | Tfloat) as t ->
        mk_stmt ~loc (Sdecl (t, pname, Some arg))
  in
  let binds = List.map2 bind_param callee.f_params args in
  let body' = List.map (rename_stmt sub) body in
  let tail =
    match (result, ret_expr) with
    | None, _ -> []
    | Some lv, Some e -> [ mk_stmt ~loc (Sassign (lv, rename_expr sub e)) ]
    | Some _, None ->
        Loc.error loc
          "cannot inline '%s': result used but function returns none"
          callee.f_name
  in
  [ mk_stmt ~loc (Sblock (binds @ body' @ tail)) ]

(* Calls to [targets] appearing in expression position (other than the two
   statement shapes we rewrite) cannot be inlined structurally. *)
let rec check_expr ~targets ~loc e =
  match e with
  | Eint _ | Efloat _ | Evar _ -> ()
  | Eindex (a, i) -> check_expr ~targets ~loc a; check_expr ~targets ~loc i
  | Eunop (_, a) -> check_expr ~targets ~loc a
  | Ebinop (_, a, b) ->
      check_expr ~targets ~loc a;
      check_expr ~targets ~loc b
  | Ecall (f, args) ->
      if List.mem_assoc f targets then
        Loc.error loc
          "call to directive-containing function '%s' must be a statement \
           ('%s(...);' or 'x = %s(...);') to be inlined"
          f f f;
      List.iter (check_expr ~targets ~loc) args
  | Econd (c, a, b) ->
      check_expr ~targets ~loc c;
      check_expr ~targets ~loc a;
      check_expr ~targets ~loc b

(** Inline every statement-position call to a directive-containing function.
    Returns the rewritten program and whether anything changed. *)
let expand_once ~calls prog =
  let targets =
    List.filter_map
      (fun f ->
        if f.f_name <> "main" && has_directives f then Some (f.f_name, f)
        else None)
      (functions prog)
  in
  if targets = [] then (prog, false)
  else begin
    let changed = ref false in
    let rewrite s =
      match s.skind with
      | Sexpr (Ecall (f, args)) when List.mem_assoc f targets ->
          changed := true;
          expand_call ~calls ~callee:(List.assoc f targets) ~args
            ~result:None ~loc:s.sloc
      | Sassign (lv, Ecall (f, args)) when List.mem_assoc f targets ->
          changed := true;
          expand_call ~calls ~callee:(List.assoc f targets) ~args
            ~result:(Some lv) ~loc:s.sloc
      | Sexpr e | Sassign (_, e) ->
          check_expr ~targets ~loc:s.sloc e;
          [ s ]
      | Sif (c, _, _) | Swhile (c, _) ->
          check_expr ~targets ~loc:s.sloc c;
          [ s ]
      | Sfor (_, c, _, _) ->
          Option.iter (check_expr ~targets ~loc:s.sloc) c;
          [ s ]
      | Sdecl (_, _, Some e) | Sreturn (Some e) ->
          check_expr ~targets ~loc:s.sloc e;
          [ s ]
      | _ -> [ s ]
    in
    let globals =
      List.map
        (function
          | Gfunc fn when not (List.mem_assoc fn.f_name targets) ->
              (* Inline into every caller, not just main: directive-bearing
                 callees may be reached through plain helpers. *)
              Gfunc { fn with f_body = Acc.Edit.expand_block rewrite fn.f_body }
          | g -> g)
        prog.globals
    in
    ({ globals }, !changed)
  end

(* Reject a directive-containing function that reaches itself through
   the statement-position calls inlining expands: its expansion would
   never end. *)
let reject_recursion prog =
  let targets =
    List.filter (fun f -> f.f_name <> "main" && has_directives f)
      (functions prog)
  in
  let callees f =
    let acc = ref [] in
    iter_stmts
      (fun s ->
        match s.skind with
        | Sexpr (Ecall (g, _)) | Sassign (_, Ecall (g, _)) -> (
            match List.find_opt (fun t -> t.f_name = g) targets with
            | Some t -> acc := t :: !acc
            | None -> ())
        | _ -> ())
      f.f_body;
    !acc
  in
  List.iter
    (fun f ->
      let rec reaches seen g =
        List.exists
          (fun h ->
            h.f_name = f.f_name
            || ((not (List.memq h seen)) && reaches (h :: seen) h))
          (callees g)
      in
      if reaches [] f then
        Loc.error f.f_loc
          "directive-containing function '%s' calls itself; cannot inline"
          f.f_name)
    targets

(** Fully inline directive-containing callees (fixpoint; recursion among
    them is rejected first), then drop their now-uncalled definitions so
    program-level directive queries see only the inlined copies.  The
    inlined calls are numbered from 1 in the names they introduce, and
    their statements above the program's largest sid. *)
let expand prog =
  reject_recursion prog;
  let calls = ref 0 in
  let rec go prog =
    let prog', changed = expand_once ~calls prog in
    if changed then go prog' else prog'
  in
  let prog = go prog in
  Acc.Edit.number
    { globals =
        List.filter
          (function
            | Gfunc f -> f.f_name = "main" || not (has_directives f)
            | Gvar _ -> true)
          prog.globals }

(** Did inlining change the program (so callers know to re-typecheck)? *)
let needs_expansion prog =
  List.exists
    (fun f -> f.f_name <> "main" && has_directives f)
    (functions prog)
