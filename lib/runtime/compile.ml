(** Closure-compilation engine for Mini-C execution.

    Compiles expressions and statements into nested OCaml closures over an
    array-backed register frame: a {!Resolve} pass assigns every declared
    variable a register slot at compile time, so variable access is an array
    index instead of a name lookup in the {!Value} environment, and all AST-tag
    dispatch happens once, at compile time.  A subscript chain rooted at a
    variable ([a\[i\]\[j\]], read or assigned) compiles to one closure
    that computes the row-major offset in place, where the tree walker
    takes one [Eval.view_step] per subscript; the tree walker keeps that
    separate code because it is the oracle this engine is tested against.

    The engine is observably {e bit-identical} to the tree walker in
    {!Eval} / {!Kernel_exec}: every compiled node bumps [ops] exactly like
    its tree counterpart, [stmt_hook] / [call_hook] fire with the same
    arguments in the same order, error messages are byte-equal, reduction
    partials combine in the same pairwise tree order, and closures mirror
    the tree walker's exact OCaml expression shapes so argument evaluation
    order is identical.  The differential test suite enforces this over the
    whole benchmark suite.

    Two modes, three uses:

    - {e mirror} mode (the sequential reference path and the interpreter's
      host statements): every declaration is also published into the
      name-addressable {!Value} environment and every scope is also an
      environment scope, so [stmt_hook]s — which execute code against the
      environment by name (kernel verification is the one that sets one)
      — observe exactly the state the tree walker would produce.
      Registers hold the {e same} cells/slots as the environment, so the
      two views can never diverge.
    - {e register} mode (kernel bodies): no name mirror at all — every name
      of the kernel body is register-resolved, which is what makes compiled
      kernels fast.  Kernels compile once per cache, keyed by kernel id,
      so repeated launches (JACOBI sweeps) reuse the closure.  Entry names
      are bound to device buffers and private scalar copies per runner
      call.  Every launch is one {!Kernel_exec} session, and {!run_shard}
      is this engine's one runner for it: called once owning every
      ordinal for a whole launch, once per shard for a sharded one, for
      every kernel shape.  The thread registers hold the session's cells,
      so staging and commit are shared with the tree walker's runner.
    - {e register-bound regions} (kernel verification's sequential runs):
      a kernel's sequential source compiles once in register mode, and at
      each occurrence every name it mentions is bound to the environment's
      {e own} cell or slot.  Writes — pointer rebinding included — land
      where the surrounding program and the verifier's comparison read
      them, while names the region declares stay in registers. *)

open Minic.Ast
open Codegen.Tprog
open Value
open Eval

(** A register: what an environment lookup of the name would find. *)
type reg = Unbound | Rscalar of Value.cell | Rarray of Value.slot

(** Execution state of one activation: the shared evaluator context (ops
    accounting, hooks, environment) plus the activation's registers. *)
type st = { ctx : Eval.ctx; regs : reg array }

type cexp = st -> scalar
type cstm = st -> unit

(** A compilation unit: one program, one mode, lazily-compiled functions. *)
type cu = {
  uprog : program;
  umirror : bool;
  ufuncs : (string, cfun option ref) Hashtbl.t;
}

and cfun = { cf_nregs : int; cf_body : cstm }
(** Parameters occupy registers [0 .. n-1] in declaration order. *)

let unit_of ~mirror prog =
  { uprog = prog; umirror = mirror; ufuncs = Hashtbl.create 8 }

let fun_ref u f =
  match Hashtbl.find_opt u.ufuncs f with
  | Some r -> r
  | None ->
      let r = ref None in
      Hashtbl.add u.ufuncs f r;
      r

(* Register accessors: the same dispatch (and the same error messages) a
   environment lookup would produce. *)

let reg_cell st i name =
  match st.regs.(i) with
  | Rscalar c -> c
  | Rarray _ -> error "'%s' used as a scalar but holds an array" name
  | Unbound -> error "unbound variable '%s'" name

let reg_slot st i name =
  match st.regs.(i) with
  | Rarray s -> s
  | Rscalar _ -> error "'%s' used as an array but holds a scalar" name
  | Unbound -> error "unbound variable '%s'" name

let reg_of_binding = function
  | Scalar c -> Rscalar c
  | Array s -> Rarray s

(* The slot an array name designates: its register, or an environment
   lookup when the name is free. *)
let croot res name : st -> Value.slot =
  match Resolve.slot_of res name with
  | Some i -> fun st -> reg_slot st i name
  | None -> fun st -> array_slot st.ctx.env name

(* ------------------------------------------------------------------ *)
(* Flat subscripts.                                                    *)
(* ------------------------------------------------------------------ *)

(* A subscript chain rooted at a variable, [a[i0]...[ik]], compiles to one
   closure that computes the row-major offset in place of one
   [Eval.view_step] — a view record and a shape copy — per subscript.  It
   makes the tree walker's checks in the tree walker's order, with its
   messages: the root's buffer and shape are taken before any subscript
   is evaluated ("not materialized" first), then each subscript is
   evaluated and checked in turn ("too many subscripts", then its
   dimension's bounds), and leftover dimensions are reported last. *)

let root_buf name (slot : Value.slot) =
  match slot.buf with
  | Some b -> b
  | None -> error "array '%s' is not materialized" name

(* [unfinished] ends the message for leftover dimensions. *)
let offset name ~unfinished shape (cis : cexp array) st =
  let ndims = Array.length shape and n = Array.length cis in
  let off = ref 0 in
  for j = 0 to n - 1 do
    let idx = to_int (cis.(j) st) in
    if j >= ndims then error "too many subscripts on '%s'" name;
    let dim = shape.(j) in
    if idx < 0 || idx >= dim then
      error "index %d out of bounds [0,%d) on '%s'" idx dim name;
    off := (!off * dim) + idx
  done;
  if n < ndims then
    error "'%s' needs %d more subscript(s) %s" name (ndims - n) unfinished;
  !off

(* ------------------------------------------------------------------ *)
(* Expression and statement compilation.                               *)
(* ------------------------------------------------------------------ *)

let rec cexpr u res e : cexp =
  match e with
  | Eint n ->
      let v = Int n in
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        v
  | Efloat f ->
      let v = Flt f in
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        v
  | Evar v -> (
      match Resolve.slot_of res v with
      | Some i ->
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            (reg_cell st i v).v
      | None ->
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            get_scalar st.ctx.env v)
  | Eindex _ -> (
      match Analysis.Affine.expr_root_subs [] e with
      | Some (name, subs) ->
          let root = croot res name in
          let cis = Array.of_list (List.map (cexpr u res) subs) in
          fun st -> (
            st.ctx.ops <- st.ctx.ops + 1;
            let slot = root st in
            let buf = root_buf name slot in
            let off =
              offset name ~unfinished:"to yield a value" (shape_of slot) cis
                st
            in
            match buf with
            | Gpusim.Buf.Fbuf a -> Flt a.(off)
            | Gpusim.Buf.Ibuf a -> Int a.(off))
      | None ->
          (* [Eval.eval_view] rejects a root that is not a variable before
             evaluating any subscript. *)
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            error "expected an array expression")
  | Eunop (Neg, a) ->
      let ca = cexpr u res a in
      fun st -> (
        st.ctx.ops <- st.ctx.ops + 1;
        match ca st with Int n -> Int (-n) | Flt f -> Flt (-.f))
  | Eunop (Not, a) ->
      let ca = cexpr u res a in
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        of_bool (not (truthy (ca st)))
  | Ebinop (Land, a, b) ->
      let ca = cexpr u res a in
      let cb = cexpr u res b in
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        if truthy (ca st) then of_bool (truthy (cb st)) else int_false
  | Ebinop (Lor, a, b) ->
      let ca = cexpr u res a in
      let cb = cexpr u res b in
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        if truthy (ca st) then int_true else of_bool (truthy (cb st))
  | Ebinop (op, a, b) ->
      let ca = cexpr u res a in
      let cb = cexpr u res b in
      (* Same application shape as the tree walker, so the (right-to-left)
         argument evaluation order is identical. *)
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        arith op (ca st) (cb st)
  | Ecall (f, args) -> ccall u res f args
  | Econd (c, a, b) ->
      let cc = cexpr u res c in
      let ca = cexpr u res a in
      let cb = cexpr u res b in
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        if truthy (cc st) then ca st else cb st

and ccall u res f args : cexp =
  if is_acc_routine f then begin
    let cargs = List.map (cexpr u res) args in
    fun st -> (
      st.ctx.ops <- st.ctx.ops + 1;
      let vargs = List.map (fun c -> c st) cargs in
      match st.ctx.call_hook with
      | Some h -> (
          match h f vargs with
          | Some v -> v
          | None -> error "unknown OpenACC runtime routine '%s'" f)
      | None -> host_acc_routine f vargs)
  end
  else
    let float1 g =
      match args with
      | [ a ] ->
          let ca = cexpr u res a in
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            Flt (g (to_float (ca st)))
      | _ ->
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            error "builtin '%s' expects 1 argument" f
    in
    match f with
    | "sqrt" -> float1 sqrt
    | "fabs" -> float1 Float.abs
    | "exp" -> float1 exp
    | "log" -> float1 log
    | "sin" -> float1 sin
    | "cos" -> float1 cos
    | "floor" -> float1 Float.floor
    | "ceil" -> float1 Float.ceil
    | "float" -> float1 Fun.id
    | "int" -> (
        match args with
        | [ a ] ->
            let ca = cexpr u res a in
            fun st ->
              st.ctx.ops <- st.ctx.ops + 1;
              Int (to_int (ca st))
        | _ ->
            fun st ->
              st.ctx.ops <- st.ctx.ops + 1;
              error "int() expects 1 argument")
    | "abs" -> (
        match args with
        | [ a ] ->
            let ca = cexpr u res a in
            fun st -> (
              st.ctx.ops <- st.ctx.ops + 1;
              match ca st with
              | Int n -> Int (abs n)
              | Flt x -> Flt (Float.abs x))
        | _ ->
            fun st ->
              st.ctx.ops <- st.ctx.ops + 1;
              error "abs() expects 1 argument")
    | "pow" -> (
        match args with
        | [ a; b ] ->
            let ca = cexpr u res a in
            let cb = cexpr u res b in
            fun st ->
              st.ctx.ops <- st.ctx.ops + 1;
              Flt (Float.pow (to_float (ca st)) (to_float (cb st)))
        | _ ->
            fun st ->
              st.ctx.ops <- st.ctx.ops + 1;
              error "pow() expects 2 arguments")
    | "min" | "max" -> (
        match args with
        | [ a; b ] ->
            let ca = cexpr u res a in
            let cb = cexpr u res b in
            if f = "min" then
              fun st -> (
                st.ctx.ops <- st.ctx.ops + 1;
                let x = ca st and y = cb st in
                match (x, y) with
                | Int i, Int j -> Int (min i j)
                | _ ->
                    let i = to_float x and j = to_float y in
                    Flt (Float.min i j))
            else
              fun st -> (
                st.ctx.ops <- st.ctx.ops + 1;
                let x = ca st and y = cb st in
                match (x, y) with
                | Int i, Int j -> Int (max i j)
                | _ ->
                    let i = to_float x and j = to_float y in
                    Flt (Float.max i j))
        | _ ->
            fun st ->
              st.ctx.ops <- st.ctx.ops + 1;
              error "%s() expects 2 arguments" f)
    | _ -> cuser u res f args

and cuser u res f args : cexp =
  match Minic.Ast.find_function u.uprog f with
  | None ->
      fun st ->
        st.ctx.ops <- st.ctx.ops + 1;
        error "call to unknown function '%s'" f
  | Some fn ->
      if List.length args <> List.length fn.f_params then
        fun st ->
          st.ctx.ops <- st.ctx.ops + 1;
          error "arity mismatch calling '%s'" f
      else begin
        let r = fun_ref u f in
        (* Per-parameter binders, evaluated left-to-right like the tree
           walker's [List.map2] over the argument list; parameter [i] lands
           in callee register [i]. *)
        let binders =
          List.map2
            (fun p arg ->
              match p.p_typ with
              | Tarr _ | Tptr _ -> (
                  match arg with
                  | Evar v ->
                      let csrc = croot res v in
                      fun st ->
                        let s = csrc st in
                        ( p.p_name,
                          Array { buf = s.buf; root = s.root; shape = s.shape }
                        )
                  | _ ->
                      fun _ ->
                        error "array argument to '%s' must be a variable" f)
              | Tvoid | Tint | Tfloat ->
                  let ca = cexpr u res arg in
                  fun st -> (p.p_name, Scalar { v = ca st }))
            fn.f_params args
        in
        let force () =
          match !r with
          | Some cf -> cf
          | None ->
              let cf = compile_fun u fn in
              r := Some cf;
              cf
        in
        (* Mirror mode also publishes the parameters by name; register
           mode keeps them in registers only.  Either way the callee sees
           no name of its caller's scopes. *)
        let mirror = u.umirror in
        fun st ->
          st.ctx.ops <- st.ctx.ops + 1;
          let cf = force () in
          let bindings = List.map (fun b -> b st) binders in
          let regs = Array.make cf.cf_nregs Unbound in
          List.iteri (fun i (_, b) -> regs.(i) <- reg_of_binding b) bindings;
          Value.call st.ctx.env
            (if mirror then bindings else [])
            (fun () ->
              match cf.cf_body { ctx = st.ctx; regs } with
              | () -> Int 0
              | exception Return_exc r -> Option.value r ~default:(Int 0))
      end

and compile_fun u fn =
  let res = Resolve.create () in
  List.iter (fun p -> ignore (Resolve.declare res p.p_name)) fn.f_params;
  (* The callee body runs directly in the parameters' scope (no extra
     scope), exactly like [Eval.call_user]. *)
  let body = cblock u res fn.f_body in
  { cf_nregs = Resolve.frame_size res; cf_body = body }

and cdecl u res typ name init : cstm =
  match typ with
  | Tint | Tfloat | Tvoid ->
      let cinit = Option.map (cexpr u res) init in
      let z = zero_of_typ typ in
      let slot = Resolve.declare res name in
      if u.umirror then
        fun st ->
          let v = match cinit with Some c -> c st | None -> z in
          let cell = { v } in
          st.regs.(slot) <- Rscalar cell;
          declare st.ctx.env name (Scalar cell)
      else
        fun st ->
          let v = match cinit with Some c -> c st | None -> z in
          st.regs.(slot) <- Rscalar { v }
  | Tarr (_, None) ->
      let slot = Resolve.declare res name in
      if u.umirror then
        fun st ->
          let s = { buf = None; root = name; shape = [||] } in
          st.regs.(slot) <- Rarray s;
          declare st.ctx.env name (Array s)
      else
        fun st -> st.regs.(slot) <- Rarray { buf = None; root = name; shape = [||] }
  | Tarr _ ->
      (* Extent plan, outermost first; evaluation and the negative-extent
         check interleave exactly like [Eval.exec_decl]'s unroll. *)
      let rec plan = function
        | Tarr (t, Some e) -> `Ext (cexpr u res e) :: plan t
        | Tarr (_, None) -> [ `Bad ]
        | t -> [ `Base (base_is_float t) ]
      in
      let plan = plan typ in
      let slot = Resolve.declare res name in
      let build st =
        let rdims = ref [] in
        let isf = ref false in
        List.iter
          (function
            | `Ext c ->
                let n = to_int (c st) in
                if n < 0 then error "negative array extent for '%s'" name;
                rdims := n :: !rdims
            | `Bad ->
                error "inner dimensions of '%s' need explicit extents" name
            | `Base f -> isf := f)
          plan;
        let dims = List.rev !rdims in
        let total = List.fold_left ( * ) 1 dims in
        let buf =
          if !isf then Gpusim.Buf.create_float total
          else Gpusim.Buf.create_int total
        in
        { buf = Some buf; root = name; shape = Array.of_list dims }
      in
      if u.umirror then
        fun st ->
          let s = build st in
          st.regs.(slot) <- Rarray s;
          declare st.ctx.env name (Array s)
      else fun st -> st.regs.(slot) <- Rarray (build st)
  | Tptr _ -> (
      match init with
      | Some (Evar src) ->
          let csrc = croot res src in
          let slot = Resolve.declare res name in
          if u.umirror then
            fun st ->
              let s0 = csrc st in
              let s = { buf = s0.buf; root = s0.root; shape = s0.shape } in
              st.regs.(slot) <- Rarray s;
              declare st.ctx.env name (Array s)
          else
            fun st ->
              let s0 = csrc st in
              st.regs.(slot) <-
                Rarray { buf = s0.buf; root = s0.root; shape = s0.shape }
      | Some _ ->
          let _slot = Resolve.declare res name in
          fun _ ->
            error "pointer '%s' may only be initialized from an array" name
      | None ->
          let slot = Resolve.declare res name in
          if u.umirror then
            fun st ->
              let s = { buf = None; root = name; shape = [||] } in
              st.regs.(slot) <- Rarray s;
              declare st.ctx.env name (Array s)
          else
            fun st ->
              st.regs.(slot) <-
                Rarray { buf = None; root = name; shape = [||] })

(* Pointer rebinding [p = a] when the assignment target holds an array. *)
and crebind res v rhs : st -> Value.slot -> unit =
  match rhs with
  | Evar src ->
      let csrc = croot res src in
      fun st slot ->
        let s = csrc st in
        slot.buf <- s.buf;
        slot.root <- s.root;
        slot.shape <- s.shape
  | _ -> fun _ _ -> error "'%s' holds an array; assign another array to it" v

and cassign u res lv rhs : cstm =
  match lv with
  | Lvar v -> (
      let crhs = cexpr u res rhs in
      let rebind = crebind res v rhs in
      match Resolve.slot_of res v with
      | Some i ->
          fun st -> (
            match st.regs.(i) with
            | Rscalar cell -> cell.v <- crhs st
            | Rarray slot -> rebind st slot
            | Unbound -> error "unbound variable '%s'" v)
      | None ->
          fun st -> (
            match lookup_exn st.ctx.env v with
            | Scalar cell -> cell.v <- crhs st
            | Array slot -> rebind st slot))
  | Lindex _ ->
      (* The right-hand side is evaluated first, as in [Eval.assign]. *)
      let crhs = cexpr u res rhs in
      let name, subs = Option.get (Analysis.Affine.lvalue_root_subs [] lv) in
      let root = croot res name in
      let cis = Array.of_list (List.map (cexpr u res) subs) in
      fun st -> (
        let v = crhs st in
        let slot = root st in
        let buf = root_buf name slot in
        let off =
          offset name ~unfinished:"to be assignable" (shape_of slot) cis st
        in
        match buf with
        | Gpusim.Buf.Fbuf a -> a.(off) <- to_float v
        | Gpusim.Buf.Ibuf a -> a.(off) <- to_int v)

and cstmt u res s : cstm =
  let body = cskind u res s in
  fun st ->
    st.ctx.ops <- st.ctx.ops + 1;
    let handled =
      match st.ctx.stmt_hook with Some h -> h st.ctx s | None -> false
    in
    if not handled then body st

and cskind u res s : cstm =
  match s.skind with
  | Sskip -> fun _ -> ()
  | Sexpr e ->
      let c = cexpr u res e in
      fun st -> ignore (c st)
  | Sassign (lv, e) -> cassign u res lv e
  | Sdecl (typ, name, init) -> cdecl u res typ name init
  | Sif (c, b1, b2) ->
      let cc = cexpr u res c in
      let cb1 = cscope u res b1 in
      let cb2 = cscope u res b2 in
      fun st -> if truthy (cc st) then cb1 st else cb2 st
  | Swhile (c, b) ->
      let cc = cexpr u res c in
      let cb = cscope u res b in
      fun st -> (
        try
          while truthy (cc st) do
            try cb st with Continue_exc -> ()
          done
        with Break_exc -> ())
  | Sfor (init, cond, step, b) ->
      Resolve.scoped res (fun () ->
          let cinit = Option.map (cstmt u res) init in
          let ccond = Option.map (cexpr u res) cond in
          let cstep = Option.map (cstmt u res) step in
          let cb = cscope u res b in
          let run st =
            (match cinit with Some c -> c st | None -> ());
            let continue_ () =
              match ccond with Some c -> truthy (c st) | None -> true
            in
            try
              while continue_ () do
                (try cb st with Continue_exc -> ());
                match cstep with Some c -> c st | None -> ()
              done
            with Break_exc -> ()
          in
          if u.umirror then fun st -> Value.scoped st.ctx.env (fun () -> run st)
          else run)
  | Sblock b -> cscope u res b
  | Sreturn e ->
      let c = Option.map (cexpr u res) e in
      fun st -> raise (Return_exc (Option.map (fun c -> c st) c))
  | Sbreak -> fun _ -> raise Break_exc
  | Scontinue -> fun _ -> raise Continue_exc
  | Sacc (_, body) -> (
      (* Directives are transparent to sequential execution. *)
      match body with
      | Some b ->
          let cb = cstmt u res b in
          fun st -> cb st
      | None -> fun _ -> ())

and cscope u res b : cstm =
  Resolve.scoped res (fun () ->
      let cb = cblock u res b in
      if u.umirror then fun st -> Value.scoped st.ctx.env (fun () -> cb st)
      else cb)

and cblock u res b : cstm =
  let cs = List.map (cstmt u res) b in
  match cs with
  | [] -> fun _ -> ()
  | [ c ] -> c
  | cs -> fun st -> List.iter (fun c -> c st) cs

(* ------------------------------------------------------------------ *)
(* Sequential reference execution (mirror mode).                       *)
(* ------------------------------------------------------------------ *)

(** Compiled counterpart of {!Eval.run_reference}: same environment setup
    (globals initialized by the tree walker — a one-time cold path), main
    body compiled in mirror mode, declarations landing in the initial
    scope exactly like the tree walker (no extra scope). *)
let run_reference ?hook prog =
  let env = Value.create () in
  let ctx = Eval.make ~hook prog env in
  Eval.init_globals ctx;
  let u = unit_of ~mirror:true prog in
  let res = Resolve.create () in
  let main = Minic.Ast.main_function prog in
  let cb = cblock u res main.f_body in
  let st = { ctx; regs = Array.make (max 1 (Resolve.frame_size res)) Unbound } in
  (try cb st with Return_exc _ -> ());
  ctx

(** Engine-dispatching reference runner. *)
let reference ~engine ?hook prog =
  match engine with
  | Engine.Tree -> Eval.run_reference ?hook prog
  | Engine.Compiled -> run_reference ?hook prog

(* ------------------------------------------------------------------ *)
(* Kernel compilation (register mode).                                 *)
(* ------------------------------------------------------------------ *)

(** Loop header of a compiled kernel.  In the parallel mode the driver
    cell replaces the loop variable's {e base} register (header
    expressions are compiled against the base scope, so — like the tree
    walker, which evaluates them outside the thread scope — they never see
    per-thread cells). *)
type cmode =
  | Cnone
  | Cseq of { driver_slot : int; init : cexp; cond : cexp; step : cstm option }
  | Cpar of {
      driver_slot : int;  (** base-scope register of [kl_var] *)
      init : cexp;
      cond : cexp;
      step : cstm option;
    }

type ckernel = {
  ck_base : (string * int) list;  (** kernel names, in {!Kernel_exec.kernel_names} order *)
  ck_class : int list;  (** thread registers of the classified scalars *)
  ck_cands : (string * int * int) list;
      (** extra-induction candidates: (name, thread register, base register);
          a launch's session commits those the host binds as scalars (a
          launch-time property), and the others alias their base register *)
  ck_mode : cmode;
  ck_nregs : int;
  ck_body : cstm;
}

let compile_kernel u (k : kernel) : ckernel =
  let names = Kernel_exec.kernel_names k in
  let res = Resolve.create () in
  let base = List.map (fun n -> (n, Resolve.declare res n)) names in
  let base_slot n =
    match List.assoc_opt n base with
    | Some s -> s
    | None -> Resolve.declare res n
  in
  let cand_names =
    Analysis.Varset.elements k.k_induction
    |> List.filter (fun v ->
           (not (List.mem_assoc v k.k_scalars))
           && (match k.k_loop with Some l -> v <> l.kl_var | None -> true))
  in
  let declare_thread () =
    let cls = List.map (fun (v, _) -> Resolve.declare res v) k.k_scalars in
    let cands =
      List.map (fun v -> (v, Resolve.declare res v, base_slot v)) cand_names
    in
    (cls, cands)
  in
  let cls, cands, mode, body =
    match k.k_loop with
    | None ->
        Resolve.enter res;
        let cls, cands = declare_thread () in
        let body = Resolve.scoped res (fun () -> cblock u res k.k_body) in
        Resolve.leave res;
        (cls, cands, Cnone, body)
    | Some l when k.k_seq ->
        Resolve.enter res;
        let cls, cands = declare_thread () in
        (* The driver is placed in the thread scope after the loop init is
           evaluated, so the init resolves [kl_var] to whatever a thread
           cell or base copy held before. *)
        let init = cexpr u res l.kl_init in
        let driver_slot = Resolve.declare res l.kl_var in
        let cond = cexpr u res l.kl_cond in
        let step = Option.map (cstmt u res) l.kl_step in
        let body = Resolve.scoped res (fun () -> cblock u res l.kl_body) in
        Resolve.leave res;
        ( cls,
          cands,
          Cseq { driver_slot; init; cond; step },
          body )
    | Some l ->
        (* Parallel: header compiled against the base scope only. *)
        let init = cexpr u res l.kl_init in
        let driver_slot = base_slot l.kl_var in
        let cond = cexpr u res l.kl_cond in
        let step = Option.map (cstmt u res) l.kl_step in
        Resolve.enter res;
        let cls, cands = declare_thread () in
        let body = Resolve.scoped res (fun () -> cblock u res l.kl_body) in
        Resolve.leave res;
        ( cls,
          cands,
          Cpar { driver_slot; init; cond; step },
          body )
  in
  { ck_base = base;
    ck_class = cls;
    ck_cands = cands;
    ck_mode = mode;
    ck_nregs = max 1 (Resolve.frame_size res);
    ck_body = body }

(** Kept only so the benchmark harness in [perfbench/] still builds: it
    passes a store to {!Interp.run}, which ignores it.  The next change to
    the benchmark drops both. *)
type store = unit

let create_store () : store = ()

(** Per-translation compile cache: each kernel compiles once, keyed by
    kernel id, and repeated launches — and every shard of a sharded
    launch — reuse the closure.  Host statement leaves compile once in
    mirror mode, keyed by translated-statement id, so names they declare
    stay visible — with the same cells — to the interpreter's environment
    and to every other compiled or tree-walked fragment.  Kernels'
    sequential sources compile once each in register mode, keyed by kernel
    id.  Ids are only meaningful within one translation, so a cache serves
    one translation. *)
type cache = {
  cunit : cu;  (** register mode, for kernel bodies and sources *)
  ckernels : (int, ckernel) Hashtbl.t;  (** k_id -> compiled kernel *)
  cmunit : cu;  (** mirror mode, for host statements *)
  chost : (int, int * cstm) Hashtbl.t;  (** tid -> (nregs, closure) *)
  csources : (int, csource) Hashtbl.t;  (** k_id -> compiled source *)
}

(** A kernel's sequential source: the names it mentions with their
    registers, bound afresh at every occurrence. *)
and csource = { cs_names : (string * int) list; cs_nregs : int; cs_body : cstm }

let create_cache prog =
  { cunit = unit_of ~mirror:false prog;
    ckernels = Hashtbl.create 8;
    cmunit = unit_of ~mirror:true prog;
    chost = Hashtbl.create 32;
    csources = Hashtbl.create 8 }

(** Execute one host statement leaf through the compiled engine.  Free
    names fall back to environment lookups, so fragments compiled in
    isolation still see declarations made by earlier fragments (exactly
    the tree walker's scoping). *)
let host_stmt cache (ctx : Eval.ctx) tid s =
  let nregs, c =
    match Hashtbl.find_opt cache.chost tid with
    | Some entry -> entry
    | None ->
        let res = Resolve.create () in
        let c = cstmt cache.cmunit res s in
        let entry = (max 1 (Resolve.frame_size res), c) in
        Hashtbl.replace cache.chost tid entry;
        entry
  in
  c { ctx; regs = Array.make nregs Unbound }

(** Compiled counterpart of [Value.scoped env (fun () -> Eval.exec ctx
    k.k_source)]: run kernel [k]'s sequential source against [ctx] — its
    [ops], hooks and environment.  Every name the source mentions is bound
    once, before the run, to the binding an environment lookup finds (a name
    with none stays unbound and raises the tree walker's error if read);
    declarations inside the source shadow it in fresh registers, as they
    would in the tree walker's scope. *)
let run_source cache (ctx : Eval.ctx) (k : kernel) =
  let cs =
    match Hashtbl.find_opt cache.csources k.k_id with
    | Some cs -> cs
    | None ->
        let res = Resolve.create () in
        let names =
          List.map
            (fun n -> (n, Resolve.declare res n))
            (Kernel_exec.names_of_block [ k.k_source ])
        in
        let body =
          Resolve.scoped res (fun () -> cstmt cache.cunit res k.k_source)
        in
        let cs =
          { cs_names = names; cs_nregs = max 1 (Resolve.frame_size res);
            cs_body = body }
        in
        Hashtbl.replace cache.csources k.k_id cs;
        cs
  in
  let regs = Array.make cs.cs_nregs Unbound in
  List.iter
    (fun (n, slot) ->
      match Value.lookup ctx.env n with
      | Some b -> regs.(slot) <- reg_of_binding b
      | None -> ())
    cs.cs_names;
  cs.cs_body { ctx; regs }

let cached cache (k : kernel) = Hashtbl.mem cache.ckernels k.k_id

let prepare cache (k : kernel) =
  if not (cached cache k) then
    Hashtbl.replace cache.ckernels k.k_id (compile_kernel cache.cunit k)

(** The compiled engine's runner for a launch session, with
    {!Kernel_exec.run_shard}'s contract: every kernel shape, the ordinals
    [owns] selects on [device], the same returned iteration count,
    per-ordinal [weights] and staged results, published when the call
    completes — with the kernel's cached register-mode closure in place of
    the tree walk.  A whole launch is one call owning every ordinal. *)
let run_shard cache session ?weights device ~owns =
  let k = Kernel_exec.kernel session in
  prepare cache k;
  let ck = Hashtbl.find cache.ckernels k.k_id in
  let host_ctx = Kernel_exec.host session in
  let regs = Array.make ck.ck_nregs Unbound in
  let kctx = Eval.make host_ctx.prog (Value.create ()) in
  let st = { ctx = kctx; regs } in
  (* Base registers: device-array bindings and copies of the host
     scalars, bound in [kernel_names] order (device-buffer resolution can
     raise, so order matters). *)
  List.iter
    (fun (n, slot) ->
      match Value.lookup host_ctx.env n with
      | Some (Array a) ->
          regs.(slot) <-
            reg_of_binding (Kernel_exec.device_array session device a)
      | Some (Scalar c) -> regs.(slot) <- Rscalar { v = c.v }
      | None -> ())
    ck.ck_base;
  let sg = Kernel_exec.staging session in
  let cells = Kernel_exec.cells sg in
  List.iteri (fun i slot -> regs.(slot) <- Rscalar cells.(i)) ck.ck_class;
  List.iter
    (fun (v, tslot, bslot) ->
      regs.(tslot) <-
        (match Kernel_exec.slot session v with
        | Some i -> Rscalar cells.(i)
        | None -> regs.(bslot)))
    ck.ck_cands;
  let thread ordinal run =
    Kernel_exec.thread session sg ?weights kctx ~ordinal run
  in
  let run_body () = ck.ck_body st in
  let executed =
    match ck.ck_mode with
    | Cnone ->
        if owns 0 then begin
          thread 0 run_body;
          1
        end
        else 0
    | Cseq { driver_slot; init; cond; step } ->
        if owns 0 then begin
          let trips = ref 0 in
          thread 0 (fun () ->
              let driver = { v = init st } in
              regs.(driver_slot) <- Rscalar driver;
              while truthy (cond st) do
                incr trips;
                ck.ck_body st;
                match step with Some c -> c st | None -> ()
              done;
              Kernel_exec.stage_exit sg driver.v);
          !trips
        end
        else 0
    | Cpar { driver_slot; init; cond; step } ->
        let driver = { v = init st } in
        regs.(driver_slot) <- Rscalar driver;
        let executed = ref 0 and ordinal = ref 0 in
        while truthy (cond st) do
          if owns !ordinal then begin
            incr executed;
            thread !ordinal run_body
          end;
          incr ordinal;
          match step with Some c -> c st | None -> ()
        done;
        Kernel_exec.stage_exit sg driver.v;
        !executed
  in
  Kernel_exec.publish session sg;
  executed
