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

(* The printer appends to one buffer: the [*_to_string] functions return
   its contents, and the [pp_*] printers write them to a formatter. *)
let str = Buffer.add_string
let chr = Buffer.add_char

let sep_by b sep print xs =
  List.iteri (fun i x -> if i > 0 then str b sep; print x) xs

let rec expr b prec e =
  match e with
  | Eint n ->
      if n < 0 then (chr b '('; str b (string_of_int n); chr b ')')
      else str b (string_of_int n)
  | Efloat f ->
      (* Keep enough digits to round-trip through float_of_string; negative
         literals are parenthesized so "-x" never fuses with a preceding
         operator. *)
      let s = Printf.sprintf "%.17g" f in
      let s =
        if String.contains s '.' || String.contains s 'e'
           || String.contains s 'n' (* nan/inf *)
        then s
        else s ^ ".0"
      in
      if f < 0.0 then (chr b '('; str b s; chr b ')') else str b s
  | Evar v -> str b v
  | Eindex (a, i) ->
      expr b 10 a;
      chr b '[';
      expr b 0 i;
      chr b ']'
  | Eunop (op, a) ->
      if prec > 8 then chr b '(';
      chr b (match op with Neg -> '-' | Not -> '!');
      (* A literal operand of unary minus must be parenthesized, or the
         parser would fold "-5" back into a negative literal. *)
      (match (op, a) with
      | Neg, (Eint _ | Efloat _ | Eunop (Neg, _)) ->
          chr b '(';
          expr b 0 a;
          chr b ')'
      | _ -> expr b 8 a);
      if prec > 8 then chr b ')'
  | Ebinop (op, x, y) ->
      let p = binop_prec op in
      if prec > p then chr b '(';
      expr b p x;
      chr b ' ';
      str b (binop_str op);
      chr b ' ';
      expr b (p + 1) y;
      if prec > p then chr b ')'
  | Ecall (f, args) ->
      str b f;
      chr b '(';
      sep_by b ", " (expr b 0) args;
      chr b ')'
  | Econd (cnd, x, y) ->
      if prec > 1 then chr b '(';
      expr b 2 cnd;
      str b " ? ";
      expr b 0 x;
      str b " : ";
      expr b 1 y;
      if prec > 1 then chr b ')'

let rec lvalue b = function
  | Lvar v -> str b v
  | Lindex (lv, e) ->
      lvalue b lv;
      chr b '[';
      expr b 0 e;
      chr b ']'

(* Base type + declarator suffix for a declaration of [typ] named [name]. *)
let decl b (typ, name) =
  let scalar = function
    | Tint -> "int "
    | Tfloat -> "float "
    | Tvoid -> "void "
    | Tptr _ | Tarr _ -> "/* unsupported */ void "
  in
  match typ with
  | Tvoid | Tint | Tfloat ->
      str b (scalar typ);
      str b name
  | Tptr base ->
      str b (scalar base);
      chr b '*';
      str b name
  | Tarr _ ->
      (* collect all dimensions down to the scalar base *)
      let rec unroll acc = function
        | Tarr (t, ext) -> unroll (ext :: acc) t
        | t -> (List.rev acc, t)
      in
      let dims, base = unroll [] typ in
      str b
        (match base with
        | Tint -> "int "
        | Tfloat -> "float "
        | Tvoid | Tptr _ | Tarr _ -> "/* unsupported array base */ float ");
      str b name;
      List.iter
        (function
          | None -> str b "[]"
          | Some e ->
              chr b '[';
              expr b 0 e;
              chr b ']')
        dims

(* ---------------- directives ---------------- *)

let data_kind_str = function
  | Dk_copy -> "copy" | Dk_copyin -> "copyin" | Dk_copyout -> "copyout"
  | Dk_create -> "create" | Dk_present -> "present"
  | Dk_pcopy -> "pcopy" | Dk_pcopyin -> "pcopyin" | Dk_pcopyout -> "pcopyout"
  | Dk_pcreate -> "pcreate" | Dk_deviceptr -> "deviceptr"

let redop_str = function
  | Rsum -> "+" | Rprod -> "*" | Rmax -> "max" | Rmin -> "min"
  | Rland -> "&&" | Rlor -> "||"

let subarrays b subs =
  sep_by b ", "
    (fun { sub_var; sub_lo; sub_len } ->
      str b sub_var;
      match (sub_lo, sub_len) with
      | Some lo, Some len ->
          chr b '[';
          expr b 0 lo;
          chr b ':';
          expr b 0 len;
          chr b ']'
      | _ -> ())
    subs

(* [name(...)], the parenthesized part printed by [args]. *)
let call b name args =
  str b name;
  chr b '(';
  args ();
  chr b ')'

let clause b = function
  | Cdata (k, subs) -> call b (data_kind_str k) (fun () -> subarrays b subs)
  | Cprivate vs -> call b "private" (fun () -> sep_by b ", " (str b) vs)
  | Cfirstprivate vs ->
      call b "firstprivate" (fun () -> sep_by b ", " (str b) vs)
  | Creduction (op, vs) ->
      call b "reduction" (fun () ->
          str b (redop_str op);
          chr b ':';
          sep_by b ", " (str b) vs)
  | Cgang None -> str b "gang"
  | Cgang (Some e) -> call b "gang" (fun () -> expr b 0 e)
  | Cworker None -> str b "worker"
  | Cworker (Some e) -> call b "worker" (fun () -> expr b 0 e)
  | Cvector None -> str b "vector"
  | Cvector (Some e) -> call b "vector" (fun () -> expr b 0 e)
  | Cnum_gangs e -> call b "num_gangs" (fun () -> expr b 0 e)
  | Cnum_workers e -> call b "num_workers" (fun () -> expr b 0 e)
  | Cvector_length e -> call b "vector_length" (fun () -> expr b 0 e)
  | Casync None -> str b "async"
  | Casync (Some e) -> call b "async" (fun () -> expr b 0 e)
  | Cif e -> call b "if" (fun () -> expr b 0 e)
  | Ccollapse n -> call b "collapse" (fun () -> str b (string_of_int n))
  | Cseq -> str b "seq"
  | Cindependent -> str b "independent"
  | Chost subs -> call b "host" (fun () -> subarrays b subs)
  | Cdevice subs -> call b "device" (fun () -> subarrays b subs)
  | Cuse_device vs -> call b "use_device" (fun () -> sep_by b ", " (str b) vs)

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

let directive b d =
  str b "#pragma acc ";
  str b (construct_str d.dir);
  (match d.dir with
  | Acc_wait (Some e) ->
      chr b '(';
      expr b 0 e;
      chr b ')'
  | Acc_cache subs ->
      chr b '(';
      subarrays b subs;
      chr b ')'
  | Acc_wait None | Acc_parallel | Acc_kernels | Acc_data | Acc_host_data
  | Acc_loop | Acc_parallel_loop | Acc_kernels_loop | Acc_update
  | Acc_declare -> ());
  List.iter
    (fun cl ->
      chr b ' ';
      clause b cl)
    d.clauses

(* ---------------- statements ---------------- *)

let indent b ind =
  for _ = 1 to ind do
    str b "  "
  done

let rec stmt b ind s =
  indent b ind;
  match s.skind with
  | Sskip -> str b ";\n"
  | Sexpr e ->
      expr b 0 e;
      str b ";\n"
  | Sassign (lv, e) ->
      lvalue b lv;
      str b " = ";
      expr b 0 e;
      str b ";\n"
  | Sdecl (typ, name, init) ->
      decl b (typ, name);
      Option.iter
        (fun e ->
          str b " = ";
          expr b 0 e)
        init;
      str b ";\n"
  | Sif (c, b1, b2) -> (
      str b "if (";
      expr b 0 c;
      str b ") {\n";
      block b (ind + 1) b1;
      indent b ind;
      chr b '}';
      match b2 with
      | [] -> chr b '\n'
      | _ ->
          str b " else {\n";
          block b (ind + 1) b2;
          indent b ind;
          str b "}\n")
  | Swhile (c, body) ->
      str b "while (";
      expr b 0 c;
      str b ") {\n";
      block b (ind + 1) body;
      indent b ind;
      str b "}\n"
  | Sfor (init, cond, step, body) ->
      str b "for (";
      (match init with
      | None -> ()
      | Some { skind = Sdecl (typ, name, Some e); _ } ->
          decl b (typ, name);
          str b " = ";
          expr b 0 e
      | Some { skind = Sdecl (typ, name, None); _ } -> decl b (typ, name)
      | Some { skind = Sassign (lv, e); _ } ->
          lvalue b lv;
          str b " = ";
          expr b 0 e
      | Some { skind = Sexpr e; _ } -> expr b 0 e
      | Some _ -> str b "/* complex init */");
      str b "; ";
      Option.iter (expr b 0) cond;
      str b "; ";
      (match step with
      | None -> ()
      | Some { skind = Sassign (lv, e); _ } ->
          lvalue b lv;
          str b " = ";
          expr b 0 e
      | Some { skind = Sexpr e; _ } -> expr b 0 e
      | Some _ -> str b "/* complex step */");
      str b ") {\n";
      block b (ind + 1) body;
      indent b ind;
      str b "}\n"
  | Sblock body ->
      str b "{\n";
      block b (ind + 1) body;
      indent b ind;
      str b "}\n"
  | Sreturn None -> str b "return;\n"
  | Sreturn (Some e) ->
      str b "return ";
      expr b 0 e;
      str b ";\n"
  | Sbreak -> str b "break;\n"
  | Scontinue -> str b "continue;\n"
  | Sacc (d, body) ->
      directive b d;
      chr b '\n';
      Option.iter (stmt b ind) body

and block b ind stmts = List.iter (stmt b ind) stmts

let func b f =
  str b
    (match f.f_ret with
    | Tvoid -> "void " | Tint -> "int " | Tfloat -> "float "
    | Tarr _ | Tptr _ -> "void ");
  call b f.f_name (fun () ->
      sep_by b ", "
        (fun p ->
          match p.p_typ with
          | Tarr (base, _) -> decl b (Tarr (base, None), p.p_name)
          | t -> decl b (t, p.p_name))
        f.f_params);
  str b " {\n";
  block b 1 f.f_body;
  str b "}\n"

let global b = function
  | Gfunc f -> func b f
  | Gvar (typ, name, init) ->
      decl b (typ, name);
      Option.iter
        (fun e ->
          str b " = ";
          expr b 0 e)
        init;
      str b ";\n"

let to_string print x =
  let b = Buffer.create 256 in
  print b x;
  Buffer.contents b

let program_to_string prog =
  let b = Buffer.create 65536 in
  List.iter
    (fun g ->
      global b g;
      chr b '\n')
    prog.globals;
  Buffer.contents b

let expr_to_string e = to_string (fun b -> expr b 0) e
let stmt_to_string s = to_string (fun b -> stmt b 0) s
let pp_expr ppf e = Fmt.string ppf (expr_to_string e)
let pp_lvalue ppf lv = Fmt.string ppf (to_string lvalue lv)
let pp_stmt ind ppf s = Fmt.string ppf (to_string (fun b -> stmt b ind) s)
let pp_block ind ppf stmts =
  Fmt.string ppf (to_string (fun b -> block b ind) stmts)
