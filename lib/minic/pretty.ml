(** Pretty-printer for Mini-C: emits source text that re-parses to a
    structurally equal AST (the round-trip property tested in the suite). *)

open Ast

let binop_str = function
  | Add -> "+" | Sub -> "-" | Mul -> "*" | Div -> "/" | Mod -> "%"
  | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">=" | Eq -> "==" | Ne -> "!="
  | Land -> "&&" | Lor -> "||"

(* Precedence: higher binds tighter. *)
let binop_prec = function
  | Mul | Div | Mod -> 7
  | Add | Sub -> 6
  | Lt | Le | Gt | Ge -> 5
  | Eq | Ne -> 4
  | Land -> 3
  | Lor -> 2

let rec pp_expr_prec prec ppf e =
  match e with
  | Eint n -> if n < 0 then Fmt.pf ppf "(%d)" n else Fmt.int ppf n
  | Efloat f ->
      (* Keep enough digits to round-trip through float_of_string; negative
         literals are parenthesized so "-x" never fuses with a preceding
         operator. *)
      let s = Fmt.str "%.17g" f in
      let s =
        if String.contains s '.' || String.contains s 'e'
           || String.contains s 'n' (* nan/inf *)
        then s
        else s ^ ".0"
      in
      if f < 0.0 then Fmt.pf ppf "(%s)" s else Fmt.string ppf s
  | Evar v -> Fmt.string ppf v
  | Eindex (a, i) -> Fmt.pf ppf "%a[%a]" (pp_expr_prec 10) a (pp_expr_prec 0) i
  | Eunop (op, a) ->
      let s = match op with Neg -> "-" | Not -> "!" in
      (* A literal operand of unary minus must be parenthesized, or the
         parser would fold "-5" back into a negative literal. *)
      let pp_operand ppf a =
        match (op, a) with
        | Neg, (Eint _ | Efloat _ | Eunop (Neg, _)) ->
            Fmt.pf ppf "(%a)" (pp_expr_prec 0) a
        | _ -> pp_expr_prec 8 ppf a
      in
      if prec > 8 then Fmt.pf ppf "(%s%a)" s pp_operand a
      else Fmt.pf ppf "%s%a" s pp_operand a
  | Ebinop (op, a, b) ->
      let p = binop_prec op in
      let body ppf () =
        Fmt.pf ppf "%a %s %a" (pp_expr_prec p) a (binop_str op)
          (pp_expr_prec (p + 1)) b
      in
      if prec > p then Fmt.pf ppf "(%a)" body () else body ppf ()
  | Ecall (f, args) ->
      Fmt.pf ppf "%s(%a)" f (Fmt.list ~sep:(Fmt.any ", ") (pp_expr_prec 0)) args
  | Econd (cnd, a, b) ->
      let body ppf () =
        Fmt.pf ppf "%a ? %a : %a" (pp_expr_prec 2) cnd (pp_expr_prec 0) a
          (pp_expr_prec 1) b
      in
      if prec > 1 then Fmt.pf ppf "(%a)" body () else body ppf ()

let pp_expr = pp_expr_prec 0

let rec pp_lvalue ppf = function
  | Lvar v -> Fmt.string ppf v
  | Lindex (lv, e) -> Fmt.pf ppf "%a[%a]" pp_lvalue lv pp_expr e

(* Base type + declarator suffix for a declaration of [typ] named [name]. *)
let rec pp_decl ppf (typ, name) =
  match typ with
  | Tvoid -> Fmt.pf ppf "void %s" name
  | Tint -> Fmt.pf ppf "int %s" name
  | Tfloat -> Fmt.pf ppf "float %s" name
  | Tptr base -> (
      match base with
      | Tint -> Fmt.pf ppf "int *%s" name
      | Tfloat -> Fmt.pf ppf "float *%s" name
      | Tvoid -> Fmt.pf ppf "void *%s" name
      | Tptr _ | Tarr _ -> Fmt.pf ppf "/* unsupported */ void *%s" name)
  | Tarr _ -> (
      (* collect all dimensions down to the scalar base *)
      let rec unroll acc = function
        | Tarr (t, ext) -> unroll (ext :: acc) t
        | t -> (List.rev acc, t)
      in
      let dims, base = unroll [] typ in
      let dim ppf = function
        | None -> Fmt.pf ppf "[]"
        | Some e -> Fmt.pf ppf "[%a]" pp_expr e
      in
      let pp_dims ppf () = List.iter (dim ppf) dims in
      match base with
      | Tint -> Fmt.pf ppf "int %s%a" name pp_dims ()
      | Tfloat -> Fmt.pf ppf "float %s%a" name pp_dims ()
      | Tvoid | Tptr _ | Tarr _ ->
          ignore (pp_decl : _ -> _ -> _);
          Fmt.pf ppf "/* unsupported array base */ float %s%a" name pp_dims ())

(* ---------------- directives ---------------- *)

let data_kind_str = function
  | Dk_copy -> "copy" | Dk_copyin -> "copyin" | Dk_copyout -> "copyout"
  | Dk_create -> "create" | Dk_present -> "present"
  | Dk_pcopy -> "pcopy" | Dk_pcopyin -> "pcopyin" | Dk_pcopyout -> "pcopyout"
  | Dk_pcreate -> "pcreate" | Dk_deviceptr -> "deviceptr"

let redop_str = function
  | Rsum -> "+" | Rprod -> "*" | Rmax -> "max" | Rmin -> "min"
  | Rland -> "&&" | Rlor -> "||"

let pp_subarray ppf { sub_var; sub_lo; sub_len } =
  match (sub_lo, sub_len) with
  | Some lo, Some len -> Fmt.pf ppf "%s[%a:%a]" sub_var pp_expr lo pp_expr len
  | _ -> Fmt.string ppf sub_var

let pp_subarrays = Fmt.list ~sep:(Fmt.any ", ") pp_subarray
let pp_idents = Fmt.list ~sep:(Fmt.any ", ") Fmt.string

let pp_clause ppf = function
  | Cdata (k, subs) -> Fmt.pf ppf "%s(%a)" (data_kind_str k) pp_subarrays subs
  | Cprivate vs -> Fmt.pf ppf "private(%a)" pp_idents vs
  | Cfirstprivate vs -> Fmt.pf ppf "firstprivate(%a)" pp_idents vs
  | Creduction (op, vs) ->
      Fmt.pf ppf "reduction(%s:%a)" (redop_str op) pp_idents vs
  | Cgang None -> Fmt.string ppf "gang"
  | Cgang (Some e) -> Fmt.pf ppf "gang(%a)" pp_expr e
  | Cworker None -> Fmt.string ppf "worker"
  | Cworker (Some e) -> Fmt.pf ppf "worker(%a)" pp_expr e
  | Cvector None -> Fmt.string ppf "vector"
  | Cvector (Some e) -> Fmt.pf ppf "vector(%a)" pp_expr e
  | Cnum_gangs e -> Fmt.pf ppf "num_gangs(%a)" pp_expr e
  | Cnum_workers e -> Fmt.pf ppf "num_workers(%a)" pp_expr e
  | Cvector_length e -> Fmt.pf ppf "vector_length(%a)" pp_expr e
  | Casync None -> Fmt.string ppf "async"
  | Casync (Some e) -> Fmt.pf ppf "async(%a)" pp_expr e
  | Cif e -> Fmt.pf ppf "if(%a)" pp_expr e
  | Ccollapse n -> Fmt.pf ppf "collapse(%d)" n
  | Cseq -> Fmt.string ppf "seq"
  | Cindependent -> Fmt.string ppf "independent"
  | Chost subs -> Fmt.pf ppf "host(%a)" pp_subarrays subs
  | Cdevice subs -> Fmt.pf ppf "device(%a)" pp_subarrays subs
  | Cuse_device vs -> Fmt.pf ppf "use_device(%a)" pp_idents vs

let construct_str = function
  | Acc_parallel -> "parallel"
  | Acc_kernels -> "kernels"
  | Acc_data -> "data"
  | Acc_host_data -> "host_data"
  | Acc_loop -> "loop"
  | Acc_parallel_loop -> "parallel loop"
  | Acc_kernels_loop -> "kernels loop"
  | Acc_update -> "update"
  | Acc_declare -> "declare"
  | Acc_wait _ -> "wait"
  | Acc_cache _ -> "cache"

let pp_directive ppf d =
  Fmt.pf ppf "#pragma acc %s" (construct_str d.dir);
  (match d.dir with
  | Acc_wait (Some e) -> Fmt.pf ppf "(%a)" pp_expr e
  | Acc_cache subs -> Fmt.pf ppf "(%a)" pp_subarrays subs
  | Acc_wait None | Acc_parallel | Acc_kernels | Acc_data | Acc_host_data
  | Acc_loop | Acc_parallel_loop | Acc_kernels_loop | Acc_update
  | Acc_declare -> ());
  List.iter (fun cl -> Fmt.pf ppf " %a" pp_clause cl) d.clauses

(* ---------------- statements ---------------- *)

let rec pp_stmt ind ppf s =
  let pad = String.make (ind * 2) ' ' in
  match s.skind with
  | Sskip -> Fmt.pf ppf "%s;@." pad
  | Sexpr e -> Fmt.pf ppf "%s%a;@." pad pp_expr e
  | Sassign (lv, e) -> Fmt.pf ppf "%s%a = %a;@." pad pp_lvalue lv pp_expr e
  | Sdecl (typ, name, init) -> (
      match init with
      | None -> Fmt.pf ppf "%s%a;@." pad pp_decl (typ, name)
      | Some e -> Fmt.pf ppf "%s%a = %a;@." pad pp_decl (typ, name) pp_expr e)
  | Sif (c, b1, b2) ->
      Fmt.pf ppf "%sif (%a) {@.%a%s}" pad pp_expr c (pp_block (ind + 1)) b1 pad;
      if b2 = [] then Fmt.pf ppf "@."
      else Fmt.pf ppf " else {@.%a%s}@." (pp_block (ind + 1)) b2 pad
  | Swhile (c, b) ->
      Fmt.pf ppf "%swhile (%a) {@.%a%s}@." pad pp_expr c (pp_block (ind + 1)) b
        pad
  | Sfor (init, cond, step, b) ->
      let pp_init ppf () =
        match init with
        | None -> ()
        | Some { skind = Sdecl (typ, name, Some e); _ } ->
            Fmt.pf ppf "%a = %a" pp_decl (typ, name) pp_expr e
        | Some { skind = Sdecl (typ, name, None); _ } ->
            Fmt.pf ppf "%a" pp_decl (typ, name)
        | Some { skind = Sassign (lv, e); _ } ->
            Fmt.pf ppf "%a = %a" pp_lvalue lv pp_expr e
        | Some { skind = Sexpr e; _ } -> pp_expr ppf e
        | Some _ -> Fmt.string ppf "/* complex init */"
      in
      let pp_step ppf () =
        match step with
        | None -> ()
        | Some { skind = Sassign (lv, e); _ } ->
            Fmt.pf ppf "%a = %a" pp_lvalue lv pp_expr e
        | Some { skind = Sexpr e; _ } -> pp_expr ppf e
        | Some _ -> Fmt.string ppf "/* complex step */"
      in
      Fmt.pf ppf "%sfor (%a; %a; %a) {@.%a%s}@." pad pp_init ()
        (Fmt.option pp_expr) cond pp_step () (pp_block (ind + 1)) b pad
  | Sblock b -> Fmt.pf ppf "%s{@.%a%s}@." pad (pp_block (ind + 1)) b pad
  | Sreturn None -> Fmt.pf ppf "%sreturn;@." pad
  | Sreturn (Some e) -> Fmt.pf ppf "%sreturn %a;@." pad pp_expr e
  | Sbreak -> Fmt.pf ppf "%sbreak;@." pad
  | Scontinue -> Fmt.pf ppf "%scontinue;@." pad
  | Sacc (d, body) -> (
      Fmt.pf ppf "%s%a@." pad pp_directive d;
      match body with
      | None -> ()
      | Some b -> pp_stmt ind ppf b)

and pp_block ind ppf b = List.iter (pp_stmt ind ppf) b

let pp_param ppf p =
  match p.p_typ with
  | Tarr (base, _) ->
      pp_decl ppf (Tarr (base, None), p.p_name)
  | t -> pp_decl ppf (t, p.p_name)

let pp_func ppf f =
  let ret =
    match f.f_ret with
    | Tvoid -> "void" | Tint -> "int" | Tfloat -> "float"
    | Tarr _ | Tptr _ -> "void"
  in
  Fmt.pf ppf "%s %s(%a) {@.%a}@." ret f.f_name
    (Fmt.list ~sep:(Fmt.any ", ") pp_param)
    f.f_params (pp_block 1) f.f_body

let pp_global ppf = function
  | Gfunc f -> pp_func ppf f
  | Gvar (typ, name, init) -> (
      match init with
      | None -> Fmt.pf ppf "%a;@." pp_decl (typ, name)
      | Some e -> Fmt.pf ppf "%a = %a;@." pp_decl (typ, name) pp_expr e)

let pp_program ppf prog =
  List.iter (fun g -> Fmt.pf ppf "%a@." pp_global g) prog.globals

let program_to_string prog = Fmt.str "%a" pp_program prog
let expr_to_string e = Fmt.str "%a" pp_expr e
let stmt_to_string s = Fmt.str "%a" (pp_stmt 0) s
