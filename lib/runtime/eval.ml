(** Mini-C evaluator: expressions and sequential statement execution.

    Serves three masters: the reference CPU interpreter (directives are
    transparent — their bodies run sequentially), the host side of the
    translated-program interpreter, and the kernel-body executor (which binds
    arrays to device buffers before calling in here).  Every visited
    expression node bumps [ops], the unit of the simulator's CPU/GPU cost
    accounting. *)

open Minic.Ast
open Value

type ctx = {
  env : Value.t;
  prog : program;  (** for user-function calls *)
  mutable ops : int;
  mutable stmt_hook : (ctx -> stmt -> bool) option;
      (** returns [true] when it fully handled the statement *)
  mutable routines : (string * builtin) list;
      (** the [acc_*] routines' meanings: the device set's once attached *)
}

let make ?hook prog env =
  { env; prog; ops = 0; stmt_hook = hook; routines = Acc_api.host }

(* Character-wise prefix test: this runs once per call expression on the
   interpreter hot path, and [String.sub] would allocate a fresh 4-byte
   string per call. *)
let is_acc_routine f =
  String.length f > 4
  && String.unsafe_get f 0 = 'a'
  && String.unsafe_get f 1 = 'c'
  && String.unsafe_get f 2 = 'c'
  && String.unsafe_get f 3 = '_'

let arity_error f b =
  error "builtin '%s' expects %d argument(s)" f (arity b)

(* The math builtins, one meaning per name of [Minic.Typecheck.builtins]
   that is not an OpenACC routine, each calling its primitive directly. *)
let builtins =
  [ ("sqrt", Unary (fun x -> Flt (sqrt (to_float x))));
    ("fabs", Unary (fun x -> Flt (Float.abs (to_float x))));
    ("exp", Unary (fun x -> Flt (exp (to_float x))));
    ("log", Unary (fun x -> Flt (log (to_float x))));
    ("sin", Unary (fun x -> Flt (sin (to_float x))));
    ("cos", Unary (fun x -> Flt (cos (to_float x))));
    ("floor", Unary (fun x -> Flt (Float.floor (to_float x))));
    ("ceil", Unary (fun x -> Flt (Float.ceil (to_float x))));
    ("float", Unary (fun x -> Flt (to_float x)));
    ("int", Unary (fun x -> Int (to_int x)));
    ("abs", Unary (function Int n -> Int (abs n) | Flt x -> Flt (Float.abs x)));
    ("pow", Binary (fun x y -> Flt (Float.pow (to_float x) (to_float y))));
    ("min",
     Binary
       (fun x y ->
         match (x, y) with
         | Int i, Int j -> Int (Int.min i j)
         | _ -> Flt (Float.min (to_float x) (to_float y))));
    ("max",
     Binary
       (fun x y ->
         match (x, y) with
         | Int i, Int j -> Int (Int.max i j)
         | _ -> Flt (Float.max (to_float x) (to_float y)))) ]

(* The tree walker resolves a builtin at every call. *)
let builtin_table = Hashtbl.of_seq (List.to_seq builtins)

(* An [acc_*] routine call, its arguments evaluated. *)
let acc_call ctx f args =
  match (List.assoc_opt f ctx.routines, args) with
  | Some (Nullary g), [] -> g ()
  | Some (Unary g), [ x ] -> g x
  | Some (Binary g), [ x; y ] -> g x y
  | Some b, _ -> arity_error f b
  | None, _ -> error "unknown OpenACC runtime routine '%s'" f

exception Break_exc
exception Continue_exc
exception Return_exc of scalar option

(* Comparison and logical results are always [Int 0] or [Int 1]; sharing
   two preallocated scalars avoids boxing a fresh constructor per
   comparison.  Both execution engines (the tree walker and the closure
   compiler) fold their boolean-valued operators through [of_bool]. *)
let int_false = Int 0
let int_true = Int 1
let of_bool b = if b then int_true else int_false

let arith op a b =
  match (a, b) with
  | Int x, Int y -> (
      match op with
      | Add -> Int (x + y)
      | Sub -> Int (x - y)
      | Mul -> Int (x * y)
      | Div -> if y = 0 then error "integer division by zero" else Int (x / y)
      | Mod -> if y = 0 then error "integer modulo by zero" else Int (x mod y)
      | Lt -> of_bool (x < y)
      | Le -> of_bool (x <= y)
      | Gt -> of_bool (x > y)
      | Ge -> of_bool (x >= y)
      | Eq -> of_bool (x = y)
      | Ne -> of_bool (x <> y)
      | Land -> of_bool (x <> 0 && y <> 0)
      | Lor -> of_bool (x <> 0 || y <> 0))
  | _ ->
      let x = to_float a and y = to_float b in
      (match op with
      | Add -> Flt (x +. y)
      | Sub -> Flt (x -. y)
      | Mul -> Flt (x *. y)
      | Div -> Flt (x /. y)
      | Mod -> error "'%%' requires integer operands"
      | Lt -> of_bool (x < y)
      | Le -> of_bool (x <= y)
      | Gt -> of_bool (x > y)
      | Ge -> of_bool (x >= y)
      | Eq -> of_bool (x = y)
      | Ne -> of_bool (x <> y)
      | Land -> of_bool (x <> 0. && y <> 0.)
      | Lor -> of_bool (x <> 0. || y <> 0.))

let is_float_buf = function Gpusim.Buf.Fbuf _ -> true | Gpusim.Buf.Ibuf _ -> false

(** A view into (part of) a flattened array: what a partially-indexed
    multi-dimensional array denotes ([a\[i\]] of a 2-D [a] is the i-th
    row).  The tree walker subscripts one view step at a time; the
    compiled engine computes the same offset in place ({!Compile}'s flat
    subscripts), and this separate code is the oracle it is tested
    against. *)
type aview = { vbuf : Gpusim.Buf.t; voff : int; vshape : int array }

let view_of_slot name (slot : Value.slot) =
  match slot.buf with
  | Some b -> { vbuf = b; voff = 0; vshape = Value.shape_of slot }
  | None -> error "array '%s' is not materialized" name

let view_step name vw idx =
  match Array.length vw.vshape with
  | 0 -> error "too many subscripts on '%s'" name
  | ndims ->
      let dim = vw.vshape.(0) in
      if idx < 0 || idx >= dim then
        error "index %d out of bounds [0,%d) on '%s'" idx dim name;
      let rest = Array.sub vw.vshape 1 (ndims - 1) in
      let stride = Array.fold_left ( * ) 1 rest in
      { vbuf = vw.vbuf; voff = vw.voff + (idx * stride); vshape = rest }

let rec eval ctx e : scalar =
  ctx.ops <- ctx.ops + 1;
  match e with
  | Eint n -> Int n
  | Efloat f -> Flt f
  | Evar v -> get_scalar ctx.env v
  | Eindex (a, i) -> (
      let vw = eval_view ctx a in
      let idx = to_int (eval ctx i) in
      let vw = view_step (view_name a) vw idx in
      match Array.length vw.vshape with
      | 0 ->
          if is_float_buf vw.vbuf then Flt (Gpusim.Buf.get_float vw.vbuf vw.voff)
          else Int (Gpusim.Buf.get_int vw.vbuf vw.voff)
      | _ ->
          error "'%s' needs %d more subscript(s) to yield a value"
            (view_name a)
            (Array.length vw.vshape))
  | Eunop (Neg, a) -> (
      match eval ctx a with Int n -> Int (-n) | Flt f -> Flt (-.f))
  | Eunop (Not, a) -> of_bool (not (truthy (eval ctx a)))
  | Ebinop (Land, a, b) ->
      (* Short-circuit, as in C. *)
      if truthy (eval ctx a) then of_bool (truthy (eval ctx b)) else int_false
  | Ebinop (Lor, a, b) ->
      if truthy (eval ctx a) then int_true
      else of_bool (truthy (eval ctx b))
  | Ebinop (op, a, b) -> arith op (eval ctx a) (eval ctx b)
  | Ecall (f, args) -> call ctx f args
  | Econd (c, a, b) -> if truthy (eval ctx c) then eval ctx a else eval ctx b

and eval_view ctx e =
  match e with
  | Evar v -> view_of_slot v (array_slot ctx.env v)
  | Eindex (a, i) ->
      let vw = eval_view ctx a in
      let idx = to_int (eval ctx i) in
      view_step (view_name a) vw idx
  | _ -> error "expected an array expression"

and view_name = function
  | Evar v -> v
  | Eindex (a, _) -> view_name a
  | _ -> "<array expression>"

(* Arguments evaluate left to right. *)
and call ctx f args =
  if is_acc_routine f then acc_call ctx f (List.map (eval ctx) args)
  else
    match (Hashtbl.find_opt builtin_table f, args) with
    | Some (Unary g), [ a ] -> g (eval ctx a)
    | Some (Binary g), [ a; b ] ->
        let x = eval ctx a in
        g x (eval ctx b)
    | Some b, _ -> arity_error f b
    | None, _ -> call_user ctx f args

and call_user ctx f args =
  match Minic.Ast.find_function ctx.prog f with
  | None -> error "call to unknown function '%s'" f
  | Some fn ->
      if List.length args <> List.length fn.f_params then
        error "arity mismatch calling '%s'" f;
      (* Evaluate arguments in the caller's environment. *)
      let bindings =
        List.map2
          (fun p arg ->
            match p.p_typ with
            | Tarr _ | Tptr _ ->
                let name =
                  match arg with
                  | Evar v -> v
                  | _ -> error "array argument to '%s' must be a variable" f
                in
                (p.p_name, Array (alias (array_slot ctx.env name)))
            | Tvoid | Tint | Tfloat ->
                (p.p_name, Scalar { v = eval ctx arg }))
          fn.f_params args
      in
      Value.call ctx.env bindings (fun () ->
          match exec_block ctx fn.f_body with
          | () -> Int 0 (* fell through without return (void function) *)
          | exception Return_exc r -> Option.value r ~default:(Int 0))

and zero_of_typ = function
  | Tint -> Int 0
  | Tfloat -> Flt 0.0
  | Tvoid | Tarr _ | Tptr _ -> Int 0

and base_is_float = function
  | Tfloat -> true
  | Tarr (t, _) | Tptr t -> base_is_float t
  | Tint | Tvoid -> false

and exec_decl ctx typ name init =
  declare ctx.env name (decl_binding ctx typ name init)

(* The binding a declaration makes, its initializer and extents
   evaluated. *)
and decl_binding ctx typ name init =
  match typ with
  | Tint | Tfloat | Tvoid ->
      let v = match init with Some e -> eval ctx e | None -> zero_of_typ typ in
      Scalar { v }
  | Tarr (_, None) -> Array (unbound_array name)
  | Tarr _ ->
      (* The (possibly multi-dimensional) extents, outermost first, each
         checked as it is evaluated. *)
      let rec unroll = function
        | Tarr (t, Some e) ->
            let n = to_int (eval ctx e) in
            if n < 0 then error "negative array extent for '%s'" name;
            let dims, float = unroll t in
            (n :: dims, float)
        | Tarr (_, None) ->
            error "inner dimensions of '%s' need explicit extents" name
        | t -> ([], base_is_float t)
      in
      let dims, float = unroll typ in
      Array (fresh_array name ~float dims)
  | Tptr _ -> (
      match init with
      | Some (Evar src) -> Array (alias (array_slot ctx.env src))
      | Some _ -> error "pointer '%s' may only be initialized from an array" name
      | None -> Array (unbound_array name))

and assign ctx lv rhs =
  match lv with
  | Lvar v -> (
      match lookup_exn ctx.env v with
      | Scalar cell -> cell.v <- eval ctx rhs
      | Array slot -> (
          (* pointer rebinding: p = a *)
          match rhs with
          | Evar src -> rebind slot (array_slot ctx.env src)
          | _ -> error "'%s' holds an array; assign another array to it" v))
  | Lindex (base, idx) -> (
      let v = eval ctx rhs in
      let rec lvalue_view = function
        | Lvar name -> view_of_slot name (array_slot ctx.env name)
        | Lindex (b, i) ->
            let vw = lvalue_view b in
            view_step (lvalue_root b) vw (to_int (eval ctx i))
      in
      let vw = lvalue_view base in
      let i = to_int (eval ctx idx) in
      let vw = view_step (lvalue_root base) vw i in
      if Array.length vw.vshape <> 0 then
        error "'%s' needs %d more subscript(s) to be assignable"
          (lvalue_root base)
          (Array.length vw.vshape);
      match vw.vbuf with
      | Gpusim.Buf.Fbuf a -> a.(vw.voff) <- to_float v
      | Gpusim.Buf.Ibuf a -> a.(vw.voff) <- to_int v)

and exec ctx s =
  ctx.ops <- ctx.ops + 1;
  let handled =
    match ctx.stmt_hook with Some h -> h ctx s | None -> false
  in
  if not handled then
    match s.skind with
    | Sskip -> ()
    | Sexpr e -> ignore (eval ctx e)
    | Sassign (lv, e) -> assign ctx lv e
    | Sdecl (typ, name, init) -> exec_decl ctx typ name init
    | Sif (c, b1, b2) ->
        if truthy (eval ctx c) then exec_scope ctx b1 else exec_scope ctx b2
    | Swhile (c, b) -> (
        try
          while truthy (eval ctx c) do
            try exec_scope ctx b with Continue_exc -> ()
          done
        with Break_exc -> ())
    | Sfor (init, cond, step, b) ->
        scoped ctx.env (fun () ->
            Option.iter (exec ctx) init;
            let continue_ () =
              match cond with Some c -> truthy (eval ctx c) | None -> true
            in
            try
              while continue_ () do
                (try exec_scope ctx b with Continue_exc -> ());
                Option.iter (exec ctx) step
              done
            with Break_exc -> ())
    | Sblock b -> exec_scope ctx b
    | Sreturn e -> raise (Return_exc (Option.map (eval ctx) e))
    | Sbreak -> raise Break_exc
    | Scontinue -> raise Continue_exc
    | Sacc (_, body) ->
        (* Directives are transparent to sequential execution. *)
        Option.iter (exec ctx) body

and exec_scope ctx b = scoped ctx.env (fun () -> exec_block ctx b)

and exec_block ctx b = List.iter (exec ctx) b

(** Initialize global variables as the environment's globals, before
    [main] runs (their initializers see the globals declared before
    them). *)
let init_globals ctx =
  List.iter
    (function
      | Gvar (typ, name, init) ->
          declare_global ctx.env name (decl_binding ctx typ name init)
      | Gfunc _ -> ())
    ctx.prog.globals

(** Run the whole program sequentially (the reference execution). *)
let run_reference ?hook prog =
  let env = Value.create () in
  let ctx = make ?hook prog env in
  init_globals ctx;
  let main = Minic.Ast.main_function prog in
  (try exec_block ctx main.f_body with Return_exc _ -> ());
  ctx
