(** GPU-kernel execution on the simulated device.

    Iterations of the parallel loop play the role of GPU threads.  They run
    sequentially but with the memory semantics parallel execution would have:

    - arrays are shared and live in device memory;
    - private/firstprivate scalars (and loop induction variables) are fresh
      per iteration, initialized from the kernel-entry host value;
    - reduction scalars accumulate into per-thread partials that are combined
      in pairwise tree order, so float results differ from the sequential
      reference in the last bits — the CPU/GPU precision mismatch that
      motivates the paper's configurable error margin;
    - an {e active} raced scalar is re-initialized from the kernel-entry
      value at every iteration: every "thread" reads the stale initial value
      and the last writer wins — the canonical GPU race outcome;
    - a {e latent} raced scalar is register-promoted by the backend and
      behaves like a private one; only its final (dead) writeback races, so
      outputs never differ (§IV-B's undetectable latent errors). *)

open Minic.Ast
open Codegen.Tprog
open Value

type result = { iterations : int; ops : int }

let identity op init_value =
  match (op, init_value) with
  | Rsum, Int _ -> Int 0
  | Rsum, Flt _ -> Flt 0.0
  | Rprod, Int _ -> Int 1
  | Rprod, Flt _ -> Flt 1.0
  | Rmax, Int _ -> Int min_int
  | Rmax, Flt _ -> Flt Float.neg_infinity
  | Rmin, Int _ -> Int max_int
  | Rmin, Flt _ -> Flt Float.infinity
  | Rland, _ -> Int 1
  | Rlor, _ -> Int 0

let combine op a b =
  match op with
  | Rsum -> Eval.arith Add a b
  | Rprod -> Eval.arith Mul a b
  | Rmax -> (
      match (a, b) with
      | Int x, Int y -> Int (max x y)
      | _ -> Flt (Float.max (to_float a) (to_float b)))
  | Rmin -> (
      match (a, b) with
      | Int x, Int y -> Int (min x y)
      | _ -> Flt (Float.min (to_float a) (to_float b)))
  | Rland -> Int (if truthy a && truthy b then 1 else 0)
  | Rlor -> Int (if truthy a || truthy b then 1 else 0)

(* Pairwise (tree-order) combination of the per-thread partials. *)
let rec tree_reduce op = function
  | [] -> None
  | [ x ] -> Some x
  | l ->
      let rec pair = function
        | a :: b :: rest -> combine op a b :: pair rest
        | rest -> rest
      in
      tree_reduce op (pair l)

(* Names appearing in statements, each once; [rev] lists them most recent
   first occurrence first. *)
type names = { seen : (string, unit) Hashtbl.t; mutable rev : string list }

let add ns v =
  if not (Hashtbl.mem ns.seen v) then begin
    Hashtbl.replace ns.seen v ();
    ns.rev <- v :: ns.rev
  end

let rec add_expr ns = function
  | Eint _ | Efloat _ -> ()
  | Evar v -> add ns v
  | Eindex (a, i) -> add_expr ns a; add_expr ns i
  | Eunop (_, a) -> add_expr ns a
  | Ebinop (_, a, b) -> add_expr ns a; add_expr ns b
  | Ecall (_, args) -> List.iter (add_expr ns) args
  | Econd (c, a, b) -> add_expr ns c; add_expr ns a; add_expr ns b

let rec add_lvalue ns = function
  | Lvar v -> add ns v
  | Lindex (b, i) -> add_lvalue ns b; add_expr ns i

let rec add_stmt ns s =
  match s.skind with
  | Sskip | Sbreak | Scontinue -> ()
  | Sexpr e -> add_expr ns e
  | Sassign (l, e) -> add_lvalue ns l; add_expr ns e
  | Sdecl (_, v, init) -> add ns v; Option.iter (add_expr ns) init
  | Sif (c, b1, b2) ->
      add_expr ns c; List.iter (add_stmt ns) b1; List.iter (add_stmt ns) b2
  | Swhile (c, b) -> add_expr ns c; List.iter (add_stmt ns) b
  | Sfor (i, c, st, b) ->
      Option.iter (add_stmt ns) i; Option.iter (add_expr ns) c;
      Option.iter (add_stmt ns) st; List.iter (add_stmt ns) b
  | Sblock b -> List.iter (add_stmt ns) b
  | Sreturn e -> Option.iter (add_expr ns) e
  | Sacc (_, b) -> Option.iter (add_stmt ns) b

let names_of_block block =
  let ns = { seen = Hashtbl.create 16; rev = [] } in
  List.iter (add_stmt ns) block;
  ns.rev

(* The loop header is walked in place — as [kl_var = kl_init;],
   [kl_cond;] and [kl_step] — so a launch builds no statement and
   allocates no statement id. *)
let kernel_names k =
  let ns = { seen = Hashtbl.create 16; rev = [] } in
  (match k.k_loop with
  | None -> ()
  | Some l ->
      add ns l.kl_var;
      add_expr ns l.kl_init;
      add_expr ns l.kl_cond;
      Option.iter (add_stmt ns) l.kl_step);
  List.iter (add_stmt ns) k.k_body;
  ns.rev

(** Execute kernel [k] against [device], reading initial scalar values from —
    and committing results to — the host environment of [host_ctx]. *)
let run (host_ctx : Eval.ctx) device (k : kernel) : result =
  let host_env = host_ctx.Eval.env in
  let names = kernel_names k in

  (* Base frame: device-array bindings and kernel-entry scalar copies. *)
  let base = Frame.create 16 in
  let entry = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match Value.lookup host_env n with
      | Some (Array slot) ->
          let root = slot.root in
          let dbuf = Gpusim.Device.buffer device root in
          Frame.replace base n
            (Array { buf = Some dbuf; root; shape = Value.shape_of slot })
      | Some (Scalar c) ->
          Hashtbl.replace entry n c.v;
          Frame.replace base n (Scalar { v = c.v })
      | None -> () (* declared inside the kernel body *))
    names;

  let kenv : Value.t =
    { Value.globals = Frame.create 1; frames = [ base ] }
  in
  let kctx = Eval.make host_ctx.Eval.prog kenv in

  let entry_value v =
    match Hashtbl.find_opt entry v with Some x -> x | None -> Int 0
  in

  (* Scalars handled per-thread, with their treatment. *)
  let class_of = k.k_scalars in
  let extra_induction =
    Analysis.Varset.filter
      (fun v ->
        Hashtbl.mem entry v && not (List.mem_assoc v class_of)
        && (match k.k_loop with Some l -> v <> l.kl_var | None -> true))
      k.k_induction
  in

  let partials : (string, scalar list ref) Hashtbl.t = Hashtbl.create 4 in
  List.iter
    (fun (v, c) ->
      match c with
      | Sc_reduction _ -> Hashtbl.replace partials v (ref [])
      | Sc_private | Sc_firstprivate | Sc_raced _ -> ())
    class_of;
  let last_values : (string, scalar) Hashtbl.t = Hashtbl.create 8 in

  let fresh_thread_frame () =
    let frame = Frame.create 8 in
    List.iter
      (fun (v, c) ->
        let init =
          match c with
          | Sc_reduction op -> identity op (entry_value v)
          | Sc_private | Sc_firstprivate | Sc_raced _ -> entry_value v
        in
        Frame.replace frame v (Scalar { v = init }))
      class_of;
    Analysis.Varset.iter
      (fun v -> Frame.replace frame v (Scalar { v = entry_value v }))
      extra_induction;
    frame
  in

  let record_thread_results frame =
    Frame.iter
      (fun v b ->
        match b with
        | Scalar c -> (
            match List.assoc_opt v class_of with
            | Some (Sc_reduction _) -> (
                match Hashtbl.find_opt partials v with
                | Some l -> l := c.v :: !l
                | None -> ())
            | Some _ -> Hashtbl.replace last_values v c.v
            | None ->
                if Analysis.Varset.mem v extra_induction then
                  Hashtbl.replace last_values v c.v)
        | Array _ -> ())
      frame
  in

  let iterations = ref 0 in
  (match k.k_loop with
  | None ->
      (* Single-thread kernel. *)
      iterations := 1;
      let frame = fresh_thread_frame () in
      kenv.frames <- frame :: kenv.frames;
      Value.scoped kenv (fun () -> Eval.exec_block kctx k.k_body);
      kenv.frames <- List.tl kenv.frames;
      record_thread_results frame
  | Some l when k.k_seq ->
      (* seq clause: genuinely sequential on the device — persistent scalar
         state across iterations, no race semantics. *)
      iterations := 0;
      let frame = fresh_thread_frame () in
      (* sequential semantics: start private-ish cells from entry values *)
      List.iter
        (fun (v, _) ->
          Frame.replace frame v (Scalar { v = entry_value v }))
        class_of;
      kenv.frames <- frame :: kenv.frames;
      let driver = { v = Eval.eval kctx l.kl_init } in
      Frame.replace frame l.kl_var (Scalar driver);
      while truthy (Eval.eval kctx l.kl_cond) do
        incr iterations;
        Value.scoped kenv (fun () -> Eval.exec_block kctx l.kl_body);
        match l.kl_step with
        | Some st -> Eval.exec kctx st
        | None -> ()
      done;
      kenv.frames <- List.tl kenv.frames;
      (* Sequential commits: every handled scalar takes its final value. *)
      Frame.iter
        (fun v b ->
          match b with
          | Scalar c when v <> l.kl_var ->
              Hashtbl.replace last_values v c.v
          | _ -> ())
        frame;
      (match Frame.find_opt frame l.kl_var with
      | Some (Scalar c) -> Hashtbl.replace last_values l.kl_var c.v
      | _ -> ())
  | Some l ->
      (* Parallel loop: one thread per iteration. *)
      let driver = { v = Eval.eval kctx l.kl_init } in
      Frame.replace base l.kl_var (Scalar driver);
      while truthy (Eval.eval kctx l.kl_cond) do
        incr iterations;
        let frame = fresh_thread_frame () in
        kenv.frames <- frame :: kenv.frames;
        Value.scoped kenv (fun () -> Eval.exec_block kctx l.kl_body);
        kenv.frames <- List.tl kenv.frames;
        record_thread_results frame;
        match l.kl_step with
        | Some st -> Eval.exec kctx st
        | None -> ()
      done;
      (* The loop variable's exit value matches sequential execution. *)
      Hashtbl.replace last_values l.kl_var driver.v);

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
              match tree_reduce op parts with
              | Some total -> host_cell.v <- combine op (entry_value v) total
              | None -> ())
          | Sc_reduction _ | Sc_private | Sc_firstprivate | Sc_raced _ -> (
              match Hashtbl.find_opt last_values v with
              | Some value -> host_cell.v <- value
              | None -> ()))
      | Some (Array _) | None -> ())
    class_of;
  (* Loop variable and other outer induction variables. *)
  let commit_plain v =
    match (Value.lookup host_env v, Hashtbl.find_opt last_values v) with
    | Some (Scalar host_cell), Some value -> host_cell.v <- value
    | _ -> ()
  in
  (match k.k_loop with Some l -> commit_plain l.kl_var | None -> ());
  Analysis.Varset.iter commit_plain extra_induction;

  { iterations = !iterations; ops = kctx.Eval.ops }

(* ------------------- multi-device (sharded) execution ------------------- *)

(* A parallel (non-seq) loop kernel can be split across a device set; seq
   and straight-line kernels are pinned to one member by the runtime. *)
let shardable k =
  match k.k_loop with Some _ -> not k.k_seq | None -> false

(** A sharded execution of one kernel across a device set.  Every shard
    steps the full loop driver but executes only the iteration ordinals it
    owns, against its own device's buffers.  Scalar results are staged
    per-shard and published only when the shard completes without a device
    fault — a dying device's in-flight contribution is discarded wholesale —
    and are tagged with their iteration ordinal, so reductions combine in
    exactly the single-device tree order no matter how the space was split
    or how many failover passes re-executed lost ordinals. *)
type session = {
  s_host : Eval.ctx;
  s_k : kernel;
  s_names : string list;
  s_entry : (string, scalar) Hashtbl.t;  (** kernel-entry scalar values *)
  s_extra : Analysis.Varset.t;  (** outer induction vars (beyond the loop) *)
  s_red : (string, (int * scalar) list ref) Hashtbl.t;
      (** reduction partials, ordinal-tagged *)
  s_last : (string, int * scalar) Hashtbl.t;
      (** private/raced commits: highest-ordinal writer wins *)
  mutable s_exit : scalar option;  (** loop variable's exit value *)
  mutable s_total : int;  (** iteration-space size *)
}

let entry_value_of s v =
  match Hashtbl.find_opt s.s_entry v with Some x -> x | None -> Int 0

(* Scratch context over kernel-entry scalar copies and the host's array
   slots: enough to evaluate the loop driver without touching any device. *)
let scratch_ctx s =
  let base = Frame.create 16 in
  List.iter
    (fun n ->
      match Value.lookup s.s_host.Eval.env n with
      | Some (Array slot) -> Frame.replace base n (Array slot)
      | Some (Scalar c) -> Frame.replace base n (Scalar { v = c.v })
      | None -> ())
    s.s_names;
  let kenv : Value.t =
    { Value.globals = Frame.create 1; frames = [ base ] }
  in
  (base, Eval.make s.s_host.Eval.prog kenv)

let start (host_ctx : Eval.ctx) (k : kernel) : session =
  if not (shardable k) then
    invalid_arg "Kernel_exec.start: kernel is not shardable";
  let names = kernel_names k in
  let entry = Hashtbl.create 16 in
  List.iter
    (fun n ->
      match Value.lookup host_ctx.Eval.env n with
      | Some (Scalar c) -> Hashtbl.replace entry n c.v
      | Some (Array _) | None -> ())
    names;
  let extra =
    Analysis.Varset.filter
      (fun v ->
        Hashtbl.mem entry v
        && (not (List.mem_assoc v k.k_scalars))
        && (match k.k_loop with Some l -> v <> l.kl_var | None -> true))
      k.k_induction
  in
  let s =
    { s_host = host_ctx; s_k = k; s_names = names; s_entry = entry;
      s_extra = extra; s_red = Hashtbl.create 4; s_last = Hashtbl.create 8;
      s_exit = None; s_total = 0 }
  in
  List.iter
    (fun (v, c) ->
      match c with
      | Sc_reduction _ -> Hashtbl.replace s.s_red v (ref [])
      | Sc_private | Sc_firstprivate | Sc_raced _ -> ())
    k.k_scalars;
  (* Driver-only pass: size the iteration space and capture the loop
     variable's sequential exit value, without any device involved. *)
  (match k.k_loop with
  | None -> s.s_total <- 1
  | Some l ->
      let base, kctx = scratch_ctx s in
      let driver = { v = Eval.eval kctx l.kl_init } in
      Frame.replace base l.kl_var (Scalar driver);
      let n = ref 0 in
      while truthy (Eval.eval kctx l.kl_cond) do
        incr n;
        match l.kl_step with
        | Some st -> Eval.exec kctx st
        | None -> ()
      done;
      s.s_exit <- Some driver.v;
      s.s_total <- !n);
  s

let total_iterations s = s.s_total

let kernel s = s.s_k
let host s = s.s_host
let entry s v = Hashtbl.find_opt s.s_entry v

(** One shard's scalar results, tagged with their iteration ordinal and
    held back until the shard completes cleanly. *)
type staging = {
  sg_red : (string, (int * scalar) list ref) Hashtbl.t;
  sg_last : (string, int * scalar) Hashtbl.t;
}

let staging s =
  let sg = { sg_red = Hashtbl.create 4; sg_last = Hashtbl.create 8 } in
  Hashtbl.iter (fun v _ -> Hashtbl.replace sg.sg_red v (ref [])) s.s_red;
  sg

(** Stage the value iteration [ordinal] left in thread scalar [v]:
    reduction partials accumulate; private/raced scalars and outer
    induction variables keep their latest writer; other names are not
    committed. *)
let stage s sg ~ordinal v x =
  match List.assoc_opt v s.s_k.k_scalars with
  | Some (Sc_reduction _) -> (
      match Hashtbl.find_opt sg.sg_red v with
      | Some r -> r := (ordinal, x) :: !r
      | None -> ())
  | Some _ -> Hashtbl.replace sg.sg_last v (ordinal, x)
  | None ->
      if Analysis.Varset.mem v s.s_extra then
        Hashtbl.replace sg.sg_last v (ordinal, x)

(** Clean shard completion: publish the staged results into the session
    (the highest-ordinal writer wins across shards). *)
let publish s sg =
  Hashtbl.iter
    (fun v r ->
      match Hashtbl.find_opt s.s_red v with
      | Some dst -> dst := !r @ !dst
      | None -> ())
    sg.sg_red;
  Hashtbl.iter
    (fun v (o, x) ->
      match Hashtbl.find_opt s.s_last v with
      | Some (o', _) when o' > o -> ()
      | Some _ | None -> Hashtbl.replace s.s_last v (o, x))
    sg.sg_last

(** Execute the ordinals selected by [owns] on [device], against its
    buffers.  Returns the number of iterations executed.  [weights]
    (sized [total_iterations]) receives the measured interpreted-op
    count of every executed ordinal — the per-iteration work the
    imbalance analyzer re-costs under alternative schedules.  Raises
    [Gpusim.Device.Device_fault] if the device dies; staged scalar results
    of the aborted shard are discarded. *)
let run_shard s ?weights device ~owns =
  let k = s.s_k in
  let l =
    match k.k_loop with
    | Some l when not k.k_seq -> l
    | Some _ | None -> invalid_arg "Kernel_exec.run_shard: not shardable"
  in
  let host_env = s.s_host.Eval.env in
  let base = Frame.create 16 in
  List.iter
    (fun n ->
      match Value.lookup host_env n with
      | Some (Array slot) ->
          let root = slot.root in
          let dbuf = Gpusim.Device.buffer device root in
          Frame.replace base n
            (Array { buf = Some dbuf; root; shape = Value.shape_of slot })
      | Some (Scalar _) ->
          Frame.replace base n (Scalar { v = entry_value_of s n })
      | None -> ())
    s.s_names;
  let kenv : Value.t =
    { Value.globals = Frame.create 1; frames = [ base ] }
  in
  let kctx = Eval.make s.s_host.Eval.prog kenv in
  let class_of = k.k_scalars in
  let fresh_thread_frame () =
    let frame = Frame.create 8 in
    List.iter
      (fun (v, c) ->
        let init =
          match c with
          | Sc_reduction op -> identity op (entry_value_of s v)
          | Sc_private | Sc_firstprivate | Sc_raced _ -> entry_value_of s v
        in
        Frame.replace frame v (Scalar { v = init }))
      class_of;
    Analysis.Varset.iter
      (fun v -> Frame.replace frame v (Scalar { v = entry_value_of s v }))
      s.s_extra;
    frame
  in
  let sg = staging s in
  let executed = ref 0 in
  let ordinal = ref 0 in
  let driver = { v = Eval.eval kctx l.kl_init } in
  Frame.replace base l.kl_var (Scalar driver);
  while truthy (Eval.eval kctx l.kl_cond) do
    if owns !ordinal then begin
      incr executed;
      let frame = fresh_thread_frame () in
      kenv.frames <- frame :: kenv.frames;
      let ops0 = kctx.Eval.ops in
      Value.scoped kenv (fun () -> Eval.exec_block kctx l.kl_body);
      (match weights with
      | Some w when !ordinal < Array.length w ->
          w.(!ordinal) <- kctx.Eval.ops - ops0
      | Some _ | None -> ());
      kenv.frames <- List.tl kenv.frames;
      Frame.iter
        (fun v b ->
          match b with
          | Scalar c -> stage s sg ~ordinal:!ordinal v c.v
          | Array _ -> ())
        frame
    end;
    incr ordinal;
    match l.kl_step with
    | Some st -> Eval.exec kctx st
    | None -> ()
  done;
  publish s sg;
  !executed

(** Commit the merged scalar results to the host environment, in the same
    order and combination scheme as single-device {!run}. *)
let commit s =
  let k = s.s_k in
  let host_env = s.s_host.Eval.env in
  List.iter
    (fun (v, c) ->
      match Value.lookup host_env v with
      | Some (Scalar host_cell) -> (
          match c with
          | Sc_reduction op -> (
              let parts =
                match Hashtbl.find_opt s.s_red v with
                | Some r ->
                    List.sort (fun (a, _) (b, _) -> compare a b) !r
                    |> List.map snd
                | None -> []
              in
              match tree_reduce op parts with
              | Some total ->
                  host_cell.v <- combine op (entry_value_of s v) total
              | None -> ())
          | Sc_private | Sc_firstprivate | Sc_raced _ -> (
              match Hashtbl.find_opt s.s_last v with
              | Some (_, value) -> host_cell.v <- value
              | None -> ()))
      | Some (Array _) | None -> ())
    k.k_scalars;
  (match k.k_loop with
  | Some l -> (
      match (Value.lookup host_env l.kl_var, s.s_exit) with
      | Some (Scalar cell), Some v -> cell.v <- v
      | _ -> ())
  | None -> ());
  Analysis.Varset.iter
    (fun v ->
      match (Value.lookup host_env v, Hashtbl.find_opt s.s_last v) with
      | Some (Scalar host_cell), Some (_, value) -> host_cell.v <- value
      | _ -> ())
    s.s_extra
