(** Closure-compilation engine for Mini-C execution.

    Compiles expressions and statements into nested OCaml closures over an
    array-backed register frame: a {!Resolve} pass assigns every declared
    variable a register slot at compile time, so variable access is an array
    index instead of string hashing over a frame stack, and all AST-tag
    dispatch happens once, at compile time.

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
      name-addressable {!Value} environment and scopes push/pop real
      (pooled) frames, so [stmt_hook]s — which execute code against the
      environment by name (kernel verification, coherence instrumentation)
      — observe exactly the state the tree walker would produce.
      Registers hold the {e same} cells/slots as the environment, so the
      two views can never diverge.
    - {e register} mode (kernel bodies): no name mirror at all — every name
      of the kernel body is register-resolved, which is what makes compiled
      kernels fast.  Kernels compile once and are cached by content, so
      repeated launches (JACOBI sweeps) reuse the closure.  Entry names
      are bound to device buffers and private scalar copies per launch.
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

(** A register: what a frame-stack lookup of the name would find. *)
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
   frame-stack lookup would produce. *)

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
  | Eindex (a, i) ->
      let name = view_name a in
      let cvw = cview u res a in
      let ci = cexpr u res i in
      fun st -> (
        st.ctx.ops <- st.ctx.ops + 1;
        let vw = cvw st in
        let idx = to_int (ci st) in
        let vw = view_step name vw idx in
        match Array.length vw.vshape with
        | 0 ->
            if is_float_buf vw.vbuf then
              Flt (Gpusim.Buf.get_float vw.vbuf vw.voff)
            else Int (Gpusim.Buf.get_int vw.vbuf vw.voff)
        | _ ->
            error "'%s' needs %d more subscript(s) to yield a value" name
              (Array.length vw.vshape))
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

(* Mirrors [Eval.eval_view]: no ops bump of its own. *)
and cview u res e : st -> Eval.aview =
  match e with
  | Evar v -> (
      match Resolve.slot_of res v with
      | Some i -> fun st -> view_of_slot v (reg_slot st i v)
      | None -> fun st -> view_of_slot v (array_slot st.ctx.env v))
  | Eindex (a, i) ->
      let name = view_name a in
      let cvw = cview u res a in
      let ci = cexpr u res i in
      fun st ->
        let vw = cvw st in
        let idx = to_int (ci st) in
        view_step name vw idx
  | _ -> fun _ -> error "expected an array expression"

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
                  | Evar v -> (
                      match Resolve.slot_of res v with
                      | Some i ->
                          fun st ->
                            let s = reg_slot st i v in
                            ( p.p_name,
                              Array
                                { buf = s.buf; root = s.root; shape = s.shape }
                            )
                      | None ->
                          fun st ->
                            let s = array_slot st.ctx.env v in
                            ( p.p_name,
                              Array
                                { buf = s.buf; root = s.root; shape = s.shape }
                            ))
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
        if u.umirror then
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            let cf = force () in
            let bindings = List.map (fun b -> b st) binders in
            let regs = Array.make cf.cf_nregs Unbound in
            List.iteri
              (fun i (_, b) -> regs.(i) <- reg_of_binding b)
              bindings;
            let saved = st.ctx.env.frames in
            let frame = Hashtbl.create 8 in
            List.iter
              (fun (name, b) -> Hashtbl.replace frame name b)
              bindings;
            st.ctx.env.frames <- [ frame ];
            let restore () = st.ctx.env.frames <- saved in
            (try
               cf.cf_body { ctx = st.ctx; regs };
               restore ();
               Int 0
             with
            | Return_exc r ->
                restore ();
                (match r with Some v -> v | None -> Int 0)
            | e ->
                restore ();
                raise e)
        else
          fun st ->
            st.ctx.ops <- st.ctx.ops + 1;
            let cf = force () in
            let bindings = List.map (fun b -> b st) binders in
            let regs = Array.make cf.cf_nregs Unbound in
            List.iteri
              (fun i (_, b) -> regs.(i) <- reg_of_binding b)
              bindings;
            let saved = st.ctx.env.frames in
            st.ctx.env.frames <- [];
            let restore () = st.ctx.env.frames <- saved in
            (try
               cf.cf_body { ctx = st.ctx; regs };
               restore ();
               Int 0
             with
            | Return_exc r ->
                restore ();
                (match r with Some v -> v | None -> Int 0)
            | e ->
                restore ();
                raise e)
      end

and compile_fun u fn =
  let res = Resolve.create () in
  List.iter (fun p -> ignore (Resolve.declare res p.p_name)) fn.f_params;
  (* The callee body runs directly in the parameter frame (no extra
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
          let csrc =
            match Resolve.slot_of res src with
            | Some i -> fun st -> reg_slot st i src
            | None -> fun st -> array_slot st.ctx.env src
          in
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
  | Evar src -> (
      match Resolve.slot_of res src with
      | Some i ->
          fun st slot ->
            let s = reg_slot st i src in
            slot.buf <- s.buf;
            slot.root <- s.root;
            slot.shape <- s.shape
      | None ->
          fun st slot ->
            let s = array_slot st.ctx.env src in
            slot.buf <- s.buf;
            slot.root <- s.root;
            slot.shape <- s.shape)
  | _ -> fun _ _ -> error "'%s' holds an array; assign another array to it" v

(* Mirrors [Eval.assign]'s lvalue_view: composed views, no ops bumps of
   their own. *)
and clview u res lv : st -> Eval.aview =
  match lv with
  | Lvar name -> (
      match Resolve.slot_of res name with
      | Some i -> fun st -> view_of_slot name (reg_slot st i name)
      | None -> fun st -> view_of_slot name (array_slot st.ctx.env name))
  | Lindex (b, i) ->
      let root = lvalue_root b in
      let cb = clview u res b in
      let ci = cexpr u res i in
      fun st ->
        let vw = cb st in
        view_step root vw (to_int (ci st))

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
  | Lindex (base, idx) ->
      let crhs = cexpr u res rhs in
      let root = lvalue_root base in
      let cbase = clview u res base in
      let ci = cexpr u res idx in
      fun st ->
        let v = crhs st in
        let vw = cbase st in
        let i = to_int (ci st) in
        let vw = view_step root vw i in
        if Array.length vw.vshape <> 0 then
          error "'%s' needs %d more subscript(s) to be assignable" root
            (Array.length vw.vshape);
        (match vw.vbuf with
        | Gpusim.Buf.Fbuf a -> a.(vw.voff) <- to_float v
        | Gpusim.Buf.Ibuf a -> a.(vw.voff) <- to_int v)

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
    frame exactly like the tree walker (no extra scope). *)
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
    walker, which evaluates them without the thread frame — they never see
    per-thread cells). *)
type cmode =
  | Cnone
  | Cseq of {
      driver_slot : int;
      init : cexp;
      cond : cexp;
      step : cstm option;
      kl_var : string;
    }
  | Cpar of {
      driver_slot : int;  (** base-scope register of [kl_var] *)
      init : cexp;
      cond : cexp;
      step : cstm option;
      kl_var : string;
    }

type ckernel = {
  ck_base : (string * int) list;  (** kernel names, in {!Kernel_exec.kernel_names} order *)
  ck_class : (string * scalar_class * int) list;  (** classified scalars, thread registers *)
  ck_cands : (string * int * int) list;
      (** extra-induction candidates: (name, thread register, base register);
          entry membership is a launch-time property, so non-members alias
          their base register instead *)
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
    let cls =
      List.map (fun (v, c) -> (v, c, Resolve.declare res v)) k.k_scalars
    in
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
        (* The driver is placed in the thread frame after the loop init is
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
          Cseq { driver_slot; init; cond; step; kl_var = l.kl_var },
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
          Cpar { driver_slot; init; cond; step; kl_var = l.kl_var },
          body )
  in
  { ck_base = base;
    ck_class = cls;
    ck_cands = cands;
    ck_mode = mode;
    ck_nregs = max 1 (Resolve.frame_size res);
    ck_body = body }

(** Content-keyed kernel store.  The key renders everything
    {!compile_kernel} reads — the kernel-entry name order, scalar classes,
    induction set, loop header and body — plus every non-[main] global
    (compiled bodies resolve user-function calls through their unit), all
    sid- and location-free.  Two kernels with equal keys therefore compile
    to interchangeable closures, so a store shared across translations of
    *edited* variants of one program (the saturate search loop) turns
    recompiles of untouched kernels into cache hits. *)
type store = (string, ckernel) Hashtbl.t

let create_store () : store = Hashtbl.create 64
let store_size (s : store) = Hashtbl.length s

let kernel_key prog (k : kernel) =
  let b = Buffer.create 1024 in
  let add s = Buffer.add_string b s; Buffer.add_char b '\x00' in
  let shared =
    { Minic.Ast.globals =
        List.filter
          (function
            | Minic.Ast.Gfunc f -> f.Minic.Ast.f_name <> "main"
            | Minic.Ast.Gvar _ -> true)
          prog.Minic.Ast.globals }
  in
  add (Minic.Pretty.program_to_string shared);
  List.iter add (Kernel_exec.kernel_names k);
  List.iter
    (fun (v, cls) ->
      add v;
      add
        (match cls with
        | Sc_private -> "private"
        | Sc_firstprivate -> "firstprivate"
        | Sc_reduction op -> "red:" ^ Minic.Pretty.redop_str op
        | Sc_raced Race_active -> "raced:active"
        | Sc_raced Race_latent -> "raced:latent"))
    k.k_scalars;
  List.iter add (Analysis.Varset.elements k.k_induction);
  add (if k.k_seq then "seq" else "par");
  (match k.k_loop with
  | None -> add "noloop"
  | Some l ->
      add l.kl_var;
      add (Minic.Pretty.expr_to_string l.kl_init);
      add (Minic.Pretty.expr_to_string l.kl_cond);
      (match l.kl_step with
      | None -> add "nostep"
      | Some s -> add (Minic.Pretty.stmt_to_string s));
      List.iter (fun s -> add (Minic.Pretty.stmt_to_string s)) l.kl_body);
  List.iter (fun s -> add (Minic.Pretty.stmt_to_string s)) k.k_body;
  Digest.to_hex (Digest.string (Buffer.contents b))

(** Per-program compile cache: kernels compile once into the (optionally
    shared) content-keyed {!store}, and repeated launches reuse the
    closure.  [ckeys] memoizes each kernel's content key per kernel id so
    the per-launch lookup stays O(1).  Host statement leaves compile once
    in mirror mode (keyed by translated-statement id, which is only
    meaningful within one translation — so [chost] is never shared), so
    names they declare stay visible — with the same cells — to the
    interpreter's environment and to every other compiled or tree-walked
    fragment.  Kernels' sequential sources compile once each in register
    mode (keyed by kernel id, so [csources] is never shared either). *)
type cache = {
  cunit : cu;  (** register mode, for kernel bodies and sources *)
  ckernels : store;  (** content-keyed; may be shared across programs *)
  ckeys : (int, string) Hashtbl.t;  (** k_id -> content key memo *)
  cmunit : cu;  (** mirror mode, for host statements *)
  chost : (int, int * cstm) Hashtbl.t;  (** tid -> (nregs, closure) *)
  csources : (int, csource) Hashtbl.t;  (** k_id -> compiled source *)
}

(** A kernel's sequential source: the names it mentions with their
    registers, bound afresh at every occurrence. *)
and csource = { cs_names : (string * int) list; cs_nregs : int; cs_body : cstm }

let create_cache ?store prog =
  { cunit = unit_of ~mirror:false prog;
    ckernels = (match store with Some s -> s | None -> create_store ());
    ckeys = Hashtbl.create 8;
    cmunit = unit_of ~mirror:true prog;
    chost = Hashtbl.create 32;
    csources = Hashtbl.create 8 }

let key_of cache (k : kernel) =
  match Hashtbl.find_opt cache.ckeys k.k_id with
  | Some key -> key
  | None ->
      let key = kernel_key cache.cunit.uprog k in
      Hashtbl.replace cache.ckeys k.k_id key;
      key

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
    once, before the run, to the binding a frame-stack lookup finds (a name
    with none stays unbound and raises the tree walker's error if read);
    declarations inside the source shadow it in fresh registers, as they
    would in the tree walker's scope frame. *)
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

let cached cache (k : kernel) = Hashtbl.mem cache.ckernels (key_of cache k)

let prepare cache (k : kernel) =
  if not (cached cache k) then
    Hashtbl.replace cache.ckernels (key_of cache k)
      (compile_kernel cache.cunit k)

(* Thread registers: one cell per classified scalar (reset per thread in
   the parallel modes), plus entry-member extra-induction candidates;
   non-member candidates alias their base register. *)
let thread_cells ck regs entry =
  let entry_value v = match entry v with Some x -> x | None -> Int 0 in
  let class_cells =
    List.map
      (fun (v, c, slot) ->
        let init =
          match c with
          | Sc_reduction op -> Kernel_exec.identity op (entry_value v)
          | Sc_private | Sc_firstprivate | Sc_raced _ -> entry_value v
        in
        let cell = { v = init } in
        regs.(slot) <- Rscalar cell;
        (v, c, cell, init))
      ck.ck_class
  in
  let member_cands =
    List.filter_map
      (fun (v, tslot, bslot) ->
        match entry v with
        | Some init ->
            let cell = { v = init } in
            regs.(tslot) <- Rscalar cell;
            Some (v, cell, init)
        | None ->
            regs.(tslot) <- regs.(bslot);
            None)
      ck.ck_cands
  in
  (class_cells, member_cands)

let reset_thread class_cells member_cands =
  List.iter (fun (_, _, cell, init) -> cell.v <- init) class_cells;
  List.iter (fun (_, cell, init) -> cell.v <- init) member_cands

(** Compiled counterpart of {!Kernel_exec.run}: a faithful transcription
    of the tree-walking kernel runner with registers in place of frames.
    [ops] accounting, iteration counts, reduction tree order, raced-scalar
    and commit semantics are bit-identical. *)
let run_kernel cache (host_ctx : Eval.ctx) device (k : kernel) :
    Kernel_exec.result =
  prepare cache k;
  let ck = Hashtbl.find cache.ckernels (key_of cache k) in
  let host_env = host_ctx.env in
  let regs = Array.make ck.ck_nregs Unbound in
  let kenv : Value.t = { Value.globals = Hashtbl.create 1; frames = [] } in
  let kctx = Eval.make host_ctx.prog kenv in
  let st = { ctx = kctx; regs } in

  (* Base registers: device-array bindings and kernel-entry scalar copies,
     bound in [kernel_names] order (device-buffer resolution can raise, so
     order matters). *)
  let entry = Hashtbl.create 16 in
  List.iter
    (fun (n, slot) ->
      match Value.lookup host_env n with
      | Some (Array s) ->
          let root = s.root in
          let dbuf = Gpusim.Device.buffer device root in
          regs.(slot) <-
            Rarray { buf = Some dbuf; root; shape = Value.shape_of s }
      | Some (Scalar c) ->
          Hashtbl.replace entry n c.v;
          regs.(slot) <- Rscalar { v = c.v }
      | None -> () (* declared inside the kernel body *))
    ck.ck_base;

  let entry_value v =
    match Hashtbl.find_opt entry v with Some x -> x | None -> Int 0
  in
  let class_cells, member_cands =
    thread_cells ck regs (Hashtbl.find_opt entry)
  in
  let reset_thread () = reset_thread class_cells member_cands in

  let partials : (string, scalar list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (v, c, _, _) ->
      match c with
      | Sc_reduction _ -> Hashtbl.replace partials v (ref [])
      | Sc_private | Sc_firstprivate | Sc_raced _ -> ())
    class_cells;
  let last_values : (string, scalar) Hashtbl.t = Hashtbl.create 8 in
  let record_thread_results () =
    List.iter
      (fun (v, c, cell, _) ->
        match c with
        | Sc_reduction _ -> (
            match Hashtbl.find_opt partials v with
            | Some l -> l := cell.v :: !l
            | None -> ())
        | Sc_private | Sc_firstprivate | Sc_raced _ ->
            Hashtbl.replace last_values v cell.v)
      class_cells;
    List.iter
      (fun (v, cell, _) -> Hashtbl.replace last_values v cell.v)
      member_cands
  in

  let iterations = ref 0 in
  (match ck.ck_mode with
  | Cnone ->
      iterations := 1;
      ck.ck_body st;
      record_thread_results ()
  | Cseq { driver_slot; init; cond; step; kl_var } ->
      iterations := 0;
      (* sequential semantics: start private-ish cells from entry values *)
      List.iter
        (fun (v, _, cell, _) -> cell.v <- entry_value v)
        class_cells;
      let driver = { v = init st } in
      regs.(driver_slot) <- Rscalar driver;
      while truthy (cond st) do
        incr iterations;
        ck.ck_body st;
        match step with Some c -> c st | None -> ()
      done;
      (* Sequential commits: every handled scalar takes its final value;
         if [kl_var] was also classified, the driver cell shadows the
         stale classified cell (the tree walker's frame has one entry). *)
      List.iter
        (fun (v, _, cell, _) ->
          if v <> kl_var then Hashtbl.replace last_values v cell.v)
        class_cells;
      List.iter
        (fun (v, cell, _) -> Hashtbl.replace last_values v cell.v)
        member_cands;
      Hashtbl.replace last_values kl_var driver.v
  | Cpar { driver_slot; init; cond; step; kl_var } ->
      let driver = { v = init st } in
      regs.(driver_slot) <- Rscalar driver;
      while truthy (cond st) do
        incr iterations;
        reset_thread ();
        ck.ck_body st;
        record_thread_results ();
        match step with Some c -> c st | None -> ()
      done;
      (* The loop variable's exit value matches sequential execution. *)
      Hashtbl.replace last_values kl_var driver.v);

  (* Commit results back to the host environment. *)
  List.iter
    (fun (v, c) ->
      match Value.lookup host_env v with
      | Some (Scalar host_cell) -> (
          match c with
          | Sc_reduction op when not k.k_seq -> (
              let parts =
                match Hashtbl.find_opt partials v with
                | Some l -> List.rev !l
                | None -> []
              in
              match Kernel_exec.tree_reduce op parts with
              | Some total ->
                  host_cell.v <- Kernel_exec.combine op (entry_value v) total
              | None -> ())
          | Sc_reduction _ | Sc_private | Sc_firstprivate | Sc_raced _ -> (
              match Hashtbl.find_opt last_values v with
              | Some value -> host_cell.v <- value
              | None -> ()))
      | Some (Array _) | None -> ())
    k.k_scalars;
  (* Loop variable and other outer induction variables. *)
  let commit_plain v =
    match (Value.lookup host_env v, Hashtbl.find_opt last_values v) with
    | Some (Scalar host_cell), Some value -> host_cell.v <- value
    | _ -> ()
  in
  (match k.k_loop with Some l -> commit_plain l.kl_var | None -> ());
  List.iter (fun (v, _, _) -> commit_plain v) member_cands;

  { Kernel_exec.iterations = !iterations; ops = kctx.ops }

(** Compiled counterpart of {!Kernel_exec.run_shard}: the kernel's cached
    register-mode closure runs the ordinals selected by [owns] on
    [device], with the same per-ordinal [weights] (interpreted ops of the
    body), and stages every thread's scalars into the session's shared,
    ordinal-tagged staging — so commits and reduction order are those of
    the tree walker's shards. *)
let run_shard cache session ?weights device ~owns =
  let k = Kernel_exec.kernel session in
  prepare cache k;
  let ck = Hashtbl.find cache.ckernels (key_of cache k) in
  let driver_slot, init, cond, step =
    match ck.ck_mode with
    | Cpar { driver_slot; init; cond; step; _ } ->
        (driver_slot, init, cond, step)
    | Cseq _ | Cnone -> invalid_arg "Compile.run_shard: not shardable"
  in
  let host_ctx = Kernel_exec.host session in
  let regs = Array.make ck.ck_nregs Unbound in
  let kenv : Value.t = { Value.globals = Hashtbl.create 1; frames = [] } in
  let kctx = Eval.make host_ctx.prog kenv in
  let st = { ctx = kctx; regs } in
  let entry = Kernel_exec.entry session in
  List.iter
    (fun (n, slot) ->
      match Value.lookup host_ctx.env n with
      | Some (Array s) ->
          let root = s.root in
          let dbuf = Gpusim.Device.buffer device root in
          regs.(slot) <-
            Rarray { buf = Some dbuf; root; shape = Value.shape_of s }
      | Some (Scalar _) ->
          regs.(slot) <-
            Rscalar { v = Option.value ~default:(Int 0) (entry n) }
      | None -> ())
    ck.ck_base;
  let class_cells, member_cands = thread_cells ck regs entry in
  let sg = Kernel_exec.staging session in
  let executed = ref 0 in
  let ordinal = ref 0 in
  let driver = { v = init st } in
  regs.(driver_slot) <- Rscalar driver;
  while truthy (cond st) do
    if owns !ordinal then begin
      incr executed;
      reset_thread class_cells member_cands;
      let ops0 = kctx.ops in
      ck.ck_body st;
      (match weights with
      | Some w when !ordinal < Array.length w ->
          w.(!ordinal) <- kctx.ops - ops0
      | Some _ | None -> ());
      List.iter
        (fun (v, _, cell, _) ->
          Kernel_exec.stage session sg ~ordinal:!ordinal v cell.v)
        class_cells;
      List.iter
        (fun (v, cell, _) ->
          Kernel_exec.stage session sg ~ordinal:!ordinal v cell.v)
        member_cands
    end;
    incr ordinal;
    match step with Some c -> c st | None -> ()
  done;
  Kernel_exec.publish session sg;
  !executed
