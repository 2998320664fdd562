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
    its tree counterpart, [stmt_hook] and the [acc_*] routines fire with
    the same arguments in the same order, error messages are byte-equal,
    reduction partials combine in the same pairwise tree order, and
    closures mirror the tree walker's exact OCaml expression shapes so
    argument evaluation order is identical.  The meanings of operators,
    builtins and value constructors are the tree walker's own ({!Eval},
    {!Value}, {!Acc_api}); this engine keeps only its evaluation.  The
    differential test suite enforces this over the whole benchmark
    suite.

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
      so repeated launches (JACOBI sweeps) reuse the closure.  The
      kernel's interface as the translator recorded it ([k_inputs],
      [k_globals]) is bound to device buffers and private scalar copies
      per runner call.  Every launch is one {!Kernel_exec} session.  A
      parallel loop's header compiles apart from its body, once per
      cache, and {!space} walks it once per launch into the session's
      iteration space; {!run_shard} is this engine's one runner: called
      with every ordinal for a whole launch, once per shard for a sharded
      one, for every kernel shape, and a parallel loop's threads take the
      driver from the space, never evaluating the header.  The thread
      registers hold the session's cells, so staging and commit are
      shared with the tree walker's runner.
    - {e register-bound regions} (kernel verification's sequential runs):
      a kernel's sequential source compiles once in register mode, and at
      each occurrence each of its inputs is bound to the environment's
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

(* A builtin resolves here, once; its arguments evaluate left to right,
   like the tree walker's. *)
and ccall u res f args : cexp =
  if is_acc_routine f then
    let cargs = List.map (cexpr u res) args in
    fun st ->
      st.ctx.ops <- st.ctx.ops + 1;
      acc_call st.ctx f (List.map (fun c -> c st) cargs)
  else
    match (List.assoc_opt f Eval.builtins, args) with
    | Some (Unary g), [ a ] ->
        let ca = cexpr u res a in
        fun st ->
          st.ctx.ops <- st.ctx.ops + 1;
          g (ca st)
    | Some (Binary g), [ a; b ] ->
        let ca = cexpr u res a in
        let cb = cexpr u res b in
        fun st ->
          st.ctx.ops <- st.ctx.ops + 1;
          let x = ca st in
          g x (cb st)
    | Some b, _ ->
        fun st ->
          st.ctx.ops <- st.ctx.ops + 1;
          arity_error f b
    | None, _ -> cuser u res f args

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
                      fun st -> (p.p_name, Array (alias (csrc st)))
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

(* One closure per declaration kind makes the binding; mirror mode also
   declares it by name. *)
and cdecl u res typ name init : cstm =
  let make : st -> binding =
    match (typ, init) with
    | (Tint | Tfloat | Tvoid), Some e ->
        let c = cexpr u res e in
        fun st -> Scalar { v = c st }
    | (Tint | Tfloat | Tvoid), None ->
        let z = zero_of_typ typ in
        fun _ -> Scalar { v = z }
    | Tarr (_, None), _ | Tptr _, None -> fun _ -> Array (unbound_array name)
    | Tarr _, _ ->
        (* Extents outermost first, each evaluated and checked in turn like
           [Eval.exec_decl]'s unroll. *)
        let rec plan = function
          | Tarr (t, Some e) ->
              let exts, float = plan t in
              (cexpr u res e :: exts, float)
          | Tarr (_, None) -> ([], None)
          | t -> ([], Some (base_is_float t))
        in
        let exts, float = plan typ in
        fun st ->
          let dims =
            List.map
              (fun c ->
                let n = to_int (c st) in
                if n < 0 then error "negative array extent for '%s'" name;
                n)
              exts
          in
          (match float with
          | Some float -> Array (fresh_array name ~float dims)
          | None -> error "inner dimensions of '%s' need explicit extents" name)
    | Tptr _, Some (Evar src) ->
        let csrc = croot res src in
        fun st -> Array (alias (csrc st))
    | Tptr _, Some _ ->
        fun _ -> error "pointer '%s' may only be initialized from an array" name
  in
  let slot = Resolve.declare res name in
  if u.umirror then
    fun st ->
      let b = make st in
      st.regs.(slot) <- reg_of_binding b;
      declare st.ctx.env name b
  else fun st -> st.regs.(slot) <- reg_of_binding (make st)

(* Pointer rebinding [p = a] when the assignment target holds an array. *)
and crebind res v rhs : st -> Value.slot -> unit =
  match rhs with
  | Evar src ->
      let csrc = croot res src in
      fun st slot -> rebind slot (csrc st)
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
  let ctx = Eval.make ?hook prog env in
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

(** Loop header of a compiled kernel: a [seq] loop's, which its one
    thread runs, or a parallel loop's driver register — the loop
    variable's base register, set per thread from the launch's iteration
    space. *)
type cmode =
  | Cnone
  | Cseq of { driver_slot : int; init : cexp; cond : cexp; step : cstm option }
  | Cpar of { driver_slot : int }

type ckernel = {
  ck_base : (string * int) list;  (** the kernel's [k_inputs], in order *)
  ck_class : int list;  (** thread registers of the classified scalars *)
  ck_cands : (string * int * int) list;
      (** extra-induction candidates: (name, thread register, base register);
          a launch's session commits those the host binds as scalars (a
          launch-time property), and the others alias their base register *)
  ck_mode : cmode;
  ck_nregs : int;
  ck_body : cstm;
}

(** A parallel loop's header, compiled against registers for its own
    inputs only, as {!Kernel_exec.space} evaluates it. *)
type cheader = {
  ch_base : (string * int) list;  (** the kernel's [k_header_inputs] *)
  ch_driver : int;
  ch_init : cexp;
  ch_cond : cexp;
  ch_step : cstm option;
  ch_nregs : int;
}

(* Registers for [names], declared in the resolver's current scope. *)
let declare_all res names = List.map (fun n -> (n, Resolve.declare res n)) names

(* The init is compiled before the driver is declared, so it reads the
   loop variable's launch copy if the header takes one. *)
let compile_header u k l =
  let res = Resolve.create () in
  let base = declare_all res k.k_header_inputs in
  let init = cexpr u res l.kl_init in
  let driver = Resolve.declare res l.kl_var in
  let cond = cexpr u res l.kl_cond in
  let step = Option.map (cstmt u res) l.kl_step in
  { ch_base = base;
    ch_driver = driver;
    ch_init = init;
    ch_cond = cond;
    ch_step = step;
    ch_nregs = max 1 (Resolve.frame_size res) }

let compile_kernel u (k : kernel) : ckernel =
  let res = Resolve.create () in
  let base = declare_all res k.k_inputs in
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
        let body = Resolve.scoped res (fun () -> cblock u res k.k_body) in
        Resolve.leave res;
        ( cls,
          cands,
          Cseq { driver_slot; init; cond; step },
          body )
    | Some l ->
        (* Parallel: the header is compiled apart ({!compile_header}). *)
        let driver_slot = base_slot l.kl_var in
        Resolve.enter res;
        let cls, cands = declare_thread () in
        let body = Resolve.scoped res (fun () -> cblock u res k.k_body) in
        Resolve.leave res;
        (cls, cands, Cpar { driver_slot }, body)
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
  cheaders : (int, cheader) Hashtbl.t;  (** k_id -> parallel loop header *)
}

(** A kernel's sequential source: the names it mentions with their
    registers, bound afresh at every occurrence. *)
and csource = { cs_names : (string * int) list; cs_nregs : int; cs_body : cstm }

let create_cache prog =
  { cunit = unit_of ~mirror:false prog;
    ckernels = Hashtbl.create 8;
    cmunit = unit_of ~mirror:true prog;
    chost = Hashtbl.create 32;
    csources = Hashtbl.create 8;
    cheaders = Hashtbl.create 8 }

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
    [ops], hooks and environment.  Each of the kernel's [k_inputs] is bound
    once, before the run, to the binding an environment lookup finds (a
    name with none stays unbound and raises the tree walker's error if
    read); the names the source declares live in registers of their own,
    as they would in the tree walker's scope. *)
let run_source cache (ctx : Eval.ctx) (k : kernel) =
  let cs =
    match Hashtbl.find_opt cache.csources k.k_id with
    | Some cs -> cs
    | None ->
        let res = Resolve.create () in
        let names = declare_all res k.k_inputs in
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

(* A launch's base registers: device-array bindings and copies of the
   host scalars, bound in [base] order (device-buffer resolution can
   raise, so order matters), then the globals the kernel's callees see. *)
let bind_base session device base nregs =
  let host_ctx = Kernel_exec.host session in
  let regs = Array.make nregs Unbound in
  let kctx = Eval.make host_ctx.prog (Value.create ()) in
  List.iter
    (fun (n, slot) ->
      Option.iter
        (fun b ->
          regs.(slot) <-
            reg_of_binding (Kernel_exec.device_binding session device b))
        (Value.lookup host_ctx.env n))
    base;
  Kernel_exec.bind_globals session device kctx.env;
  { ctx = kctx; regs }

(** The compiled engine's space pass, with {!Kernel_exec.space}'s
    contract: a parallel loop's header, compiled once per cache (apart
    from the kernel, so compiling it is no runner call) and walked over
    registers bound to [device]'s buffers. *)
let space cache session device =
  let k = Kernel_exec.kernel session in
  match k.k_loop with
  | Some l when not k.k_seq ->
      let h =
        match Hashtbl.find_opt cache.cheaders k.k_id with
        | Some h -> h
        | None ->
            let h = compile_header cache.cunit k l in
            Hashtbl.replace cache.cheaders k.k_id h;
            h
      in
      let st = bind_base session device h.ch_base h.ch_nregs in
      let driver = { v = h.ch_init st } in
      st.regs.(h.ch_driver) <- Rscalar driver;
      Kernel_exec.walk_space driver
        ~cond:(fun () -> truthy (h.ch_cond st))
        ~step:(fun () -> match h.ch_step with Some c -> c st | None -> ())
  | Some _ | None -> Kernel_exec.single

(** The compiled engine's runner for a launch session, with
    {!Kernel_exec.run_shard}'s contract: every kernel shape, the ordinals
    of [shard] of [space] on [device], the same returned iteration count,
    per-ordinal [weights] and staged results, published when the call
    completes — with the kernel's cached register-mode closure in place of
    the tree walk.  A whole launch is one call with every ordinal. *)
let run_shard cache session space ?weights device ~shard =
  let k = Kernel_exec.kernel session in
  prepare cache k;
  let ck = Hashtbl.find cache.ckernels k.k_id in
  let st = bind_base session device ck.ck_base ck.ck_nregs in
  let regs = st.regs and kctx = st.ctx in
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
        Gpusim.Device_set.iter_shard (fun o -> thread o run_body) shard;
        shard.Gpusim.Device_set.count
    | Cseq { driver_slot; init; cond; step } ->
        if shard.Gpusim.Device_set.count = 0 then 0
        else begin
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
    | Cpar { driver_slot } ->
        let driver = { v = Int 0 } in
        regs.(driver_slot) <- Rscalar driver;
        Kernel_exec.run_threads session sg ?weights kctx space ~shard driver
          run_body
  in
  Kernel_exec.publish session sg;
  executed
