(** Abstract syntax of Mini-C with OpenACC directives.

    Mini-C is the C subset that the OpenARC reproduction compiles: scalar
    [int]/[float] (double precision) variables, one-dimensional arrays with
    possibly run-time extents, pointers used for array aliasing, structured
    control flow, and function definitions.  OpenACC V1.0 directives are part
    of the surface syntax ([Sacc] statements). *)

type typ =
  | Tvoid
  | Tint
  | Tfloat  (** C [double]; the only floating type in Mini-C *)
  | Tarr of typ * expr option  (** array with optional extent expression *)
  | Tptr of typ  (** pointer, used to alias arrays *)

and unop = Neg | Not

and binop =
  | Add | Sub | Mul | Div | Mod
  | Lt | Le | Gt | Ge | Eq | Ne
  | Land | Lor

and expr =
  | Eint of int
  | Efloat of float
  | Evar of string
  | Eindex of expr * expr  (** [a\[i\]] *)
  | Eunop of unop * expr
  | Ebinop of binop * expr * expr
  | Ecall of string * expr list  (** builtin math / intrinsic call *)
  | Econd of expr * expr * expr  (** [c ? a : b] *)

(** {1 OpenACC directives} *)

(** Reduction operators of the [reduction] clause. *)
type redop = Rsum | Rprod | Rmax | Rmin | Rland | Rlor

(** A data-clause argument: [a] or the subarray [a\[lo:len\]]. *)
type subarray = { sub_var : string; sub_lo : expr option; sub_len : expr option }

(** Data-clause kinds of OpenACC V1.0 ([pcopy] is [present_or_copy], etc.). *)
type data_kind =
  | Dk_copy | Dk_copyin | Dk_copyout | Dk_create | Dk_present
  | Dk_pcopy | Dk_pcopyin | Dk_pcopyout | Dk_pcreate
  | Dk_deviceptr

type clause =
  | Cdata of data_kind * subarray list
  | Cprivate of string list
  | Cfirstprivate of string list
  | Creduction of redop * string list
  | Cgang of expr option
  | Cworker of expr option
  | Cvector of expr option
  | Cnum_gangs of expr
  | Cnum_workers of expr
  | Cvector_length of expr
  | Casync of expr option
  | Cif of expr
  | Ccollapse of int
  | Cseq
  | Cindependent
  | Chost of subarray list  (** [update host(...)] *)
  | Cdevice of subarray list  (** [update device(...)] *)
  | Cuse_device of string list  (** [host_data use_device(...)] *)

type construct =
  | Acc_parallel
  | Acc_kernels
  | Acc_data
  | Acc_host_data
  | Acc_loop
  | Acc_parallel_loop
  | Acc_kernels_loop
  | Acc_update
  | Acc_declare
  | Acc_wait of expr option
  | Acc_cache of subarray list

type directive = { dir : construct; clauses : clause list; dloc : Loc.t }

(** {1 Statements} *)

type lvalue = Lvar of string | Lindex of lvalue * expr

type stmt = { sid : int;  (** unique id within its program; 0 until placed *)
              sloc : Loc.t;
              skind : skind }

and skind =
  | Sskip
  | Sexpr of expr
  | Sassign of lvalue * expr
  | Sdecl of typ * string * expr option
  | Sif of expr * block * block
  | Swhile of expr * block
  | Sfor of stmt option * expr option * stmt option * block
      (** [for (init; cond; step) body] *)
  | Sblock of block
  | Sreturn of expr option
  | Sbreak
  | Scontinue
  | Sacc of directive * stmt option
      (** directive applied to a following statement; [None] for standalone
          directives ([update], [wait], [declare], [cache]) *)

and block = stmt list

type param = { p_typ : typ; p_name : string }

type func = {
  f_ret : typ;
  f_name : string;
  f_params : param list;
  f_body : block;
  f_loc : Loc.t;
}

type global =
  | Gfunc of func
  | Gvar of typ * string * expr option

type program = { globals : global list }

(** {1 Constructors and accessors} *)

(** A statement built outside the parser: it has no id (sid [0]) until an
    edit places it into a program, which numbers it above that program's
    largest sid.  The parser numbers the statements of each parse from 1. *)
let mk_stmt ?(loc = Loc.dummy) skind = { sid = 0; sloc = loc; skind }

let functions prog =
  List.filter_map (function Gfunc f -> Some f | Gvar _ -> None) prog.globals

let find_function prog name =
  List.find_opt (fun f -> f.f_name = name) (functions prog)

let main_function prog =
  match find_function prog "main" with
  | Some f -> f
  | None -> invalid_arg "Ast.main_function: program has no main"

(** Root variable of an lvalue ([a] for [a\[i\]\[j\]]). *)
let rec lvalue_root = function
  | Lvar v -> v
  | Lindex (lv, _) -> lvalue_root lv

let rec lvalue_to_expr = function
  | Lvar v -> Evar v
  | Lindex (lv, e) -> Eindex (lvalue_to_expr lv, e)

(** [expr_to_lvalue e] converts an index/var expression back to an lvalue. *)
let rec expr_to_lvalue = function
  | Evar v -> Some (Lvar v)
  | Eindex (e, i) -> (
      match expr_to_lvalue e with
      | Some lv -> Some (Lindex (lv, i))
      | None -> None)
  | _ -> None

(** {1 Traversals} *)

(** [fold_expr_vars f acc e] folds [f] over every variable occurrence in [e]. *)
let rec fold_expr_vars f acc = function
  | Eint _ | Efloat _ -> acc
  | Evar v -> f acc v
  | Eindex (e1, e2) | Ebinop (_, e1, e2) ->
      fold_expr_vars f (fold_expr_vars f acc e1) e2
  | Eunop (_, e) -> fold_expr_vars f acc e
  | Ecall (_, args) -> List.fold_left (fold_expr_vars f) acc args
  | Econd (c, a, b) ->
      fold_expr_vars f (fold_expr_vars f (fold_expr_vars f acc c) a) b

let expr_vars e =
  List.rev (fold_expr_vars (fun acc v -> v :: acc) [] e)

(** Iterate [f] over every statement in a block, pre-order, descending into
    all nested blocks (including directive bodies). *)
let rec iter_stmts f block = List.iter (iter_stmt f) block

and iter_stmt f s =
  f s;
  match s.skind with
  | Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue -> ()
  | Sif (_, b1, b2) -> iter_stmts f b1; iter_stmts f b2
  | Swhile (_, b) -> iter_stmts f b
  | Sfor (init, _, step, b) ->
      Option.iter (iter_stmt f) init;
      Option.iter (iter_stmt f) step;
      iter_stmts f b
  | Sblock b -> iter_stmts f b
  | Sacc (_, body) -> Option.iter (iter_stmt f) body

(** Rebuild a statement tree bottom-up. [f] receives each statement with
    already-rewritten children and returns its replacement; it is applied
    in the order the parser completes statements (children before their
    parent, in source order). *)
let rec map_stmt f s =
  let skind =
    match s.skind with
    | (Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue)
      as k -> k
    | Sif (c, b1, b2) ->
        let b1 = map_block f b1 in
        Sif (c, b1, map_block f b2)
    | Swhile (c, b) -> Swhile (c, map_block f b)
    | Sfor (init, cond, step, b) ->
        let init = Option.map (map_stmt f) init in
        let step = Option.map (map_stmt f) step in
        Sfor (init, cond, step, map_block f b)
    | Sblock b -> Sblock (map_block f b)
    | Sacc (dir, body) -> Sacc (dir, Option.map (map_stmt f) body)
  in
  f { s with skind }

and map_block f b = List.map (map_stmt f) b

let map_program f prog =
  let globals =
    List.map
      (function
        | Gfunc fn -> Gfunc { fn with f_body = map_block f fn.f_body }
        | Gvar _ as g -> g)
      prog.globals
  in
  { globals }

(** {1 Structural equality modulo statement ids and locations}

    Used by the parser/pretty-printer round-trip property tests. *)

let rec equal_typ t1 t2 =
  match (t1, t2) with
  | Tvoid, Tvoid | Tint, Tint | Tfloat, Tfloat -> true
  | Tarr (a, e1), Tarr (b, e2) -> equal_typ a b && Option.equal equal_expr e1 e2
  | Tptr a, Tptr b -> equal_typ a b
  | (Tvoid | Tint | Tfloat | Tarr _ | Tptr _), _ -> false

and equal_expr e1 e2 =
  match (e1, e2) with
  | Eint a, Eint b -> a = b
  | Efloat a, Efloat b -> Float.equal a b
  | Evar a, Evar b -> a = b
  | Eindex (a1, a2), Eindex (b1, b2) -> equal_expr a1 b1 && equal_expr a2 b2
  | Eunop (o1, a), Eunop (o2, b) -> o1 = o2 && equal_expr a b
  | Ebinop (o1, a1, a2), Ebinop (o2, b1, b2) ->
      o1 = o2 && equal_expr a1 b1 && equal_expr a2 b2
  | Ecall (f1, a1), Ecall (f2, a2) ->
      f1 = f2 && List.length a1 = List.length a2 && List.for_all2 equal_expr a1 a2
  | Econd (c1, a1, b1), Econd (c2, a2, b2) ->
      equal_expr c1 c2 && equal_expr a1 a2 && equal_expr b1 b2
  | (Eint _ | Efloat _ | Evar _ | Eindex _ | Eunop _ | Ebinop _ | Ecall _
    | Econd _), _ -> false

let equal_subarray s1 s2 =
  s1.sub_var = s2.sub_var
  && Option.equal equal_expr s1.sub_lo s2.sub_lo
  && Option.equal equal_expr s1.sub_len s2.sub_len

let equal_clause c1 c2 =
  match (c1, c2) with
  | Cdata (k1, l1), Cdata (k2, l2) ->
      k1 = k2 && List.length l1 = List.length l2
      && List.for_all2 equal_subarray l1 l2
  | Cprivate a, Cprivate b | Cfirstprivate a, Cfirstprivate b
  | Cuse_device a, Cuse_device b -> a = b
  | Creduction (o1, a), Creduction (o2, b) -> o1 = o2 && a = b
  | Cgang a, Cgang b | Cworker a, Cworker b | Cvector a, Cvector b
  | Casync a, Casync b -> Option.equal equal_expr a b
  | Cnum_gangs a, Cnum_gangs b | Cnum_workers a, Cnum_workers b
  | Cvector_length a, Cvector_length b | Cif a, Cif b -> equal_expr a b
  | Ccollapse a, Ccollapse b -> a = b
  | Cseq, Cseq | Cindependent, Cindependent -> true
  | Chost a, Chost b | Cdevice a, Cdevice b ->
      List.length a = List.length b && List.for_all2 equal_subarray a b
  | (Cdata _ | Cprivate _ | Cfirstprivate _ | Creduction _ | Cgang _
    | Cworker _ | Cvector _ | Cnum_gangs _ | Cnum_workers _ | Cvector_length _
    | Casync _ | Cif _ | Ccollapse _ | Cseq | Cindependent | Chost _
    | Cdevice _ | Cuse_device _), _ -> false

let equal_construct c1 c2 =
  match (c1, c2) with
  | Acc_wait a, Acc_wait b -> Option.equal equal_expr a b
  | Acc_cache a, Acc_cache b ->
      List.length a = List.length b && List.for_all2 equal_subarray a b
  | (Acc_parallel | Acc_kernels | Acc_data | Acc_host_data | Acc_loop
    | Acc_parallel_loop | Acc_kernels_loop | Acc_update | Acc_declare), _ ->
      c1 = c2
  | (Acc_wait _ | Acc_cache _), _ -> false

let equal_directive d1 d2 =
  equal_construct d1.dir d2.dir
  && List.length d1.clauses = List.length d2.clauses
  && List.for_all2 equal_clause d1.clauses d2.clauses

let equal_lvalue l1 l2 = equal_expr (lvalue_to_expr l1) (lvalue_to_expr l2)

let rec equal_stmt s1 s2 =
  match (s1.skind, s2.skind) with
  | Sskip, Sskip | Sbreak, Sbreak | Scontinue, Scontinue -> true
  | Sexpr a, Sexpr b -> equal_expr a b
  | Sassign (l1, e1), Sassign (l2, e2) -> equal_lvalue l1 l2 && equal_expr e1 e2
  | Sdecl (t1, v1, e1), Sdecl (t2, v2, e2) ->
      equal_typ t1 t2 && v1 = v2 && Option.equal equal_expr e1 e2
  | Sif (c1, a1, b1), Sif (c2, a2, b2) ->
      equal_expr c1 c2 && equal_block a1 a2 && equal_block b1 b2
  | Swhile (c1, b1), Swhile (c2, b2) -> equal_expr c1 c2 && equal_block b1 b2
  | Sfor (i1, c1, st1, b1), Sfor (i2, c2, st2, b2) ->
      Option.equal equal_stmt i1 i2
      && Option.equal equal_expr c1 c2
      && Option.equal equal_stmt st1 st2
      && equal_block b1 b2
  | Sblock b1, Sblock b2 -> equal_block b1 b2
  | Sreturn e1, Sreturn e2 -> Option.equal equal_expr e1 e2
  | Sacc (d1, b1), Sacc (d2, b2) ->
      equal_directive d1 d2 && Option.equal equal_stmt b1 b2
  | (Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sif _ | Swhile _ | Sfor _
    | Sblock _ | Sreturn _ | Sbreak | Scontinue | Sacc _), _ -> false

and equal_block b1 b2 =
  List.length b1 = List.length b2 && List.for_all2 equal_stmt b1 b2

let equal_func f1 f2 =
  equal_typ f1.f_ret f2.f_ret
  && f1.f_name = f2.f_name
  && List.length f1.f_params = List.length f2.f_params
  && List.for_all2
       (fun p1 p2 -> equal_typ p1.p_typ p2.p_typ && p1.p_name = p2.p_name)
       f1.f_params f2.f_params
  && equal_block f1.f_body f2.f_body

let equal_program p1 p2 =
  List.length p1.globals = List.length p2.globals
  && List.for_all2
       (fun g1 g2 ->
         match (g1, g2) with
         | Gfunc f1, Gfunc f2 -> equal_func f1 f2
         | Gvar (t1, v1, e1), Gvar (t2, v2, e2) ->
             equal_typ t1 t2 && v1 = v2 && Option.equal equal_expr e1 e2
         | (Gfunc _ | Gvar _), _ -> false)
       p1.globals p2.globals
