(** GPU-kernel execution on the simulated device.

    Iterations of the parallel loop play the role of GPU threads.  They run
    sequentially but with the memory semantics parallel execution would have:

    - arrays are shared and live in device memory;
    - private/firstprivate scalars (and loop induction variables) are fresh
      per iteration, initialized from the kernel-entry host value; a
      parallel loop's driver takes its value at the thread's ordinal from
      the launch's iteration space, fixed before any thread runs;
    - reduction scalars accumulate into per-thread partials that are combined
      in pairwise tree order, so float results differ from the sequential
      reference in the last bits — the CPU/GPU precision mismatch that
      motivates the paper's configurable error margin;
    - an {e active} raced scalar is re-initialized from the kernel-entry
      value at every iteration: every "thread" reads the stale initial value
      and the last writer wins — the canonical GPU race outcome;
    - a {e latent} raced scalar is register-promoted by the backend and
      behaves like a private one; only its final (dead) writeback races, so
      outputs never differ (§IV-B's undetectable latent errors).

    Every launch is one session: {!start}, the launch's iteration space
    (walked once by the engine's header code), then the engine's runner
    called once with every ordinal (a whole launch) or once per shard (a
    launch split across a device set), then {!commit}.  Runners stage
    their threads' scalars and publish them only when the call completes,
    so a dying device's in-flight results are discarded, and reduction
    partials carry their ordinal, so they combine in the one-device tree
    order however the space was split or re-executed. *)

open Minic.Ast
open Codegen.Tprog
open Value

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

(* A parallel (non-seq) loop kernel can be split across a device set; seq
   and straight-line kernels are pinned to one member by the runtime. *)
let shardable k =
  match k.k_loop with Some _ -> not k.k_seq | None -> false

(* ------------------------------ sessions ------------------------------ *)

(* A committed name: a classified scalar, or an outer induction variable
   the host binds as a scalar. *)
type slot = {
  sl_name : string;
  sl_host : cell option;  (* the host cell the commit writes *)
  sl_entry : scalar;  (* kernel-entry value ([Int 0] when unbound) *)
  sl_init : scalar;  (* a thread's initial value *)
  sl_red : redop option;
      (* a parallel reduction: ordinal-tagged partials in tree order *)
}

(* Scalar results per slot: reduction partials tagged with their ordinal
   (newest first), every other slot's latest writer, and the loop
   driver's exit value. *)
type results = {
  parts : (int * scalar) list array;
  last_ord : int array;  (* -1: no writer yet *)
  last : scalar array;
  mutable exit : scalar option;
}

type session = {
  s_host : Eval.ctx;
  s_k : kernel;
  s_slots : slot array;  (* classified scalars in order, then induction *)
  s_exit_cell : cell option;  (* host cell of the loop variable *)
  s_res : results;  (* everything published so far *)
}

(* One runner call: its threads' cells, one per slot, and what they
   staged. *)
type staging = { cells : cell array; res : results }

let results n =
  { parts = Array.make n []; last_ord = Array.make n (-1);
    last = Array.make n (Int 0); exit = None }

(* Entry values come from the host cells of the committed names, found
   through the kernel's classification: starting does not walk the
   kernel. *)
let start (host_ctx : Eval.ctx) (k : kernel) : session =
  let host_cell v =
    match Value.lookup host_ctx.Eval.env v with
    | Some (Scalar c) -> Some c
    | Some (Array _) | None -> None
  in
  let classified =
    List.map
      (fun (v, c) ->
        let cell = host_cell v in
        let entry = match cell with Some c -> c.v | None -> Int 0 in
        let red =
          match c with
          | Sc_reduction op when not k.k_seq -> Some op
          | Sc_reduction _ | Sc_private | Sc_firstprivate | Sc_raced _ -> None
        in
        { sl_name = v; sl_host = cell; sl_entry = entry;
          sl_init = (match red with Some op -> identity op entry | None -> entry);
          sl_red = red })
      k.k_scalars
  in
  let loop_var v =
    match k.k_loop with Some l -> String.equal v l.kl_var | None -> false
  in
  let induction =
    Analysis.Varset.fold
      (fun v acc ->
        if loop_var v || List.mem_assoc v k.k_scalars then acc
        else
          match host_cell v with
          | Some c ->
              { sl_name = v; sl_host = Some c; sl_entry = c.v; sl_init = c.v;
                sl_red = None }
              :: acc
          | None -> acc)
      k.k_induction []
  in
  let slots = Array.of_list (classified @ List.rev induction) in
  { s_host = host_ctx; s_k = k; s_slots = slots;
    s_exit_cell = Option.bind k.k_loop (fun l -> host_cell l.kl_var);
    s_res = results (Array.length slots) }

let kernel s = s.s_k
let host s = s.s_host

let device_binding s device = function
  | Scalar c -> Scalar { v = c.v }
  | Array a ->
      let buf =
        try Gpusim.Device.buffer device a.root
        with Gpusim.Device.Device_error m ->
          raise
            (Gpusim.Device.Device_error
               (Fmt.str "kernel %s at %s: %s" s.s_k.k_name
                  (Minic.Loc.to_string s.s_k.k_loc) m))
      in
      Array { buf = Some buf; root = a.root; shape = Value.shape_of a }

let bind_globals s device kenv =
  List.iter
    (fun n ->
      Option.iter
        (fun b -> Value.declare_global kenv n (device_binding s device b))
        (Value.global s.s_host.Eval.env n))
    s.s_k.k_globals

(* A kernel-side environment whose base scope binds [inputs] — the
   kernel's or its header's — as a launch on [device] sees them, and
   whose globals are those its callees name, bound the same way. *)
let kernel_ctx s device inputs =
  let kenv = Value.create () in
  List.iter
    (fun n ->
      Option.iter
        (fun b -> Value.declare kenv n (device_binding s device b))
        (Value.lookup s.s_host.Eval.env n))
    inputs;
  bind_globals s device kenv;
  (kenv, Eval.make s.s_host.Eval.prog kenv)

(* ------------------------- iteration spaces -------------------------- *)

(* The driver's value at every ordinal: an integer progression while the
   values are one (every canonical header), else each value. *)
type drivers = Step of { first : int; stride : int } | Values of scalar array

(* A kernel that is not a parallel loop is one thread at ordinal 0. *)
type space = { size : int; drivers : drivers; exit : scalar option }

let single = { size = 1; drivers = Values [||]; exit = None }

let walk_space driver ~cond ~step =
  let n = ref 0 and first = ref 0 and stride = ref 0 in
  (* the values from the first one off the progression on, newest first *)
  let off = ref [] in
  while cond () do
    (match (!off, driver.v) with
    | [], Int x when !n = 0 -> first := x
    | [], Int x when !n = 1 -> stride := x - !first
    | [], Int x when x = !first + (!n * !stride) -> ()
    | _, v -> off := v :: !off);
    incr n;
    step ()
  done;
  let drivers =
    match !off with
    | [] -> Step { first = !first; stride = !stride }
    | off ->
        let a = Array.make !n (Int 0) in
        let on_step = !n - List.length off in
        for j = 0 to on_step - 1 do
          a.(j) <- Int (!first + (j * !stride))
        done;
        List.iteri (fun j v -> a.(!n - 1 - j) <- v) off;
        Values a
  in
  { size = !n; drivers; exit = Some driver.v }

(* The header is evaluated in an environment binding only its own
   inputs: the init before the driver shadows the loop variable's launch
   copy, if the header takes it from the host. *)
let space s device =
  match s.s_k.k_loop with
  | Some l when not s.s_k.k_seq ->
      let kenv, kctx = kernel_ctx s device s.s_k.k_header_inputs in
      let driver = { v = Eval.eval kctx l.kl_init } in
      Value.declare kenv l.kl_var (Scalar driver);
      walk_space driver
        ~cond:(fun () -> truthy (Eval.eval kctx l.kl_cond))
        ~step:(fun () -> Option.iter (Eval.exec kctx) l.kl_step)
  | Some _ | None -> single

let size sp = sp.size
let whole sp = { Gpusim.Device_set.first = 0; stride = 1; count = sp.size }

let staging s =
  { cells = Array.map (fun sl -> { v = sl.sl_init }) s.s_slots;
    res = results (Array.length s.s_slots) }

let cells sg = sg.cells

let slot s v =
  let rec find i =
    if i = Array.length s.s_slots then None
    else if String.equal s.s_slots.(i).sl_name v then Some i
    else find (i + 1)
  in
  find 0

let thread s sg ?weights (ctx : Eval.ctx) ~ordinal run =
  let cells = sg.cells and r = sg.res in
  for i = 0 to Array.length cells - 1 do
    cells.(i).v <- s.s_slots.(i).sl_init
  done;
  let ops0 = ctx.Eval.ops in
  run ();
  (match weights with
  | Some w when ordinal < Array.length w -> w.(ordinal) <- ctx.Eval.ops - ops0
  | Some _ | None -> ());
  for i = 0 to Array.length cells - 1 do
    match s.s_slots.(i).sl_red with
    | Some _ -> r.parts.(i) <- (ordinal, cells.(i).v) :: r.parts.(i)
    | None ->
        r.last_ord.(i) <- ordinal;
        r.last.(i) <- cells.(i).v
  done

let stage_exit sg v = sg.res.exit <- Some v

let run_threads s sg ?weights ctx sp ~shard driver run =
  Gpusim.Device_set.iter_shard
    (fun o ->
      driver.v <-
        (match sp.drivers with
        | Step { first; stride } -> Int (first + (o * stride))
        | Values a -> a.(o));
      thread s sg ?weights ctx ~ordinal:o run)
    shard;
  (* The loop variable's exit value matches sequential execution. *)
  Option.iter (stage_exit sg) sp.exit;
  shard.Gpusim.Device_set.count

(* Merge a completed call's results: partials accumulate, the
   highest-ordinal writer wins. *)
let publish s sg =
  let r = s.s_res and g = sg.res in
  for i = 0 to Array.length s.s_slots - 1 do
    (match (g.parts.(i), r.parts.(i)) with
    | [], _ -> ()
    | p, [] -> r.parts.(i) <- p
    | p, dst -> r.parts.(i) <- p @ dst);
    let o = g.last_ord.(i) in
    if o >= 0 && o >= r.last_ord.(i) then begin
      r.last_ord.(i) <- o;
      r.last.(i) <- g.last.(i)
    end
  done;
  match g.exit with Some _ -> r.exit <- g.exit | None -> ()

(* Partials in ordinal order.  One runner call, or block shards published
   in order, leave them strictly descending; interleaved ones (cyclic
   schedule, failover) are sorted.  A shard re-executed after its scrub
   found a flipped bit has published its ordinals twice: the latest
   publication, first among equal ordinals, stands. *)
let ascending parts =
  let rec descending = function
    | (a, _) :: ((b, _) :: _ as rest) -> a > b && descending rest
    | [ _ ] | [] -> true
  in
  let rec latest = function
    | (a, x) :: (b, _) :: rest when Int.equal a b -> latest ((a, x) :: rest)
    | (_, x) :: rest -> x :: latest rest
    | [] -> []
  in
  if descending parts then List.rev_map snd parts
  else latest (List.sort (fun (a, _) (b, _) -> Int.compare a b) parts)

let commit s =
  let r = s.s_res in
  Array.iteri
    (fun i sl ->
      match (sl.sl_host, sl.sl_red) with
      | None, _ -> ()
      | Some cell, Some op -> (
          match tree_reduce op (ascending r.parts.(i)) with
          | Some total -> cell.v <- combine op sl.sl_entry total
          | None -> ())
      | Some cell, None -> if r.last_ord.(i) >= 0 then cell.v <- r.last.(i))
    s.s_slots;
  match (s.s_exit_cell, r.exit) with
  | Some cell, Some v -> cell.v <- v
  | _ -> ()

(* The tree walker's runner: one thread per given ordinal of a parallel
   loop; ordinal 0 alone runs a straight-line body or a whole [seq] loop
   over persistent cells. *)
let run_shard s sp ?weights device ~shard =
  let k = s.s_k in
  let kenv, kctx = kernel_ctx s device k.k_inputs in
  (* One scope per call binds the committed names to the staging's cells
     (above a parallel loop's driver); a thread's declarations land in
     the body's own scope above it. *)
  let sg = staging s in
  let bind_cells () =
    Array.iteri
      (fun i c -> Value.declare kenv s.s_slots.(i).sl_name (Scalar c))
      sg.cells
  in
  let in_body b () = Value.scoped kenv (fun () -> Eval.exec_block kctx b) in
  let executed =
    Value.scoped kenv @@ fun () ->
    match k.k_loop with
    | None ->
        bind_cells ();
        let body = in_body k.k_body in
        Gpusim.Device_set.iter_shard
          (fun o -> thread s sg ?weights kctx ~ordinal:o body)
          shard;
        shard.Gpusim.Device_set.count
    | Some l when k.k_seq ->
        if shard.Gpusim.Device_set.count = 0 then 0
        else begin
          bind_cells ();
          let trips = ref 0 in
          let body = in_body k.k_body in
          thread s sg ?weights kctx ~ordinal:0 (fun () ->
              let driver = { v = Eval.eval kctx l.kl_init } in
              Value.declare kenv l.kl_var (Scalar driver);
              while truthy (Eval.eval kctx l.kl_cond) do
                incr trips;
                body ();
                match l.kl_step with
                | Some st -> Eval.exec kctx st
                | None -> ()
              done;
              stage_exit sg driver.v);
          !trips
        end
    | Some l ->
        let driver = { v = Int 0 } in
        Value.declare kenv l.kl_var (Scalar driver);
        bind_cells ();
        run_threads s sg ?weights kctx sp ~shard driver (in_body k.k_body)
  in
  publish s sg;
  executed
