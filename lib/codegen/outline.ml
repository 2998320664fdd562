(** Kernel outlining: turn OpenACC compute regions into {!Tprog.kernel}s.

    Each top-level loop of a compute region becomes one GPU kernel (named
    [<function>_kernel<N>], as OpenARC does); straight-line statements inside
    a [kernels] region become single-thread kernels.  Outlining also decides
    the fate of every scalar of the body — private, firstprivate, reduction,
    or (when clauses are missing and automatic recognition is off) *raced*,
    with the race kind that the simulator will manifest. *)

open Minic
open Minic.Ast
open Analysis
open Tprog

(* Loop induction variables: the outer loop variable plus every variable
   assigned by the init/step of any nested for. These are predetermined
   private, independent of privatization settings. *)
let induction_vars outer_var body =
  let acc = ref (Varset.singleton outer_var) in
  let of_stmt s =
    match s.skind with
    | Sassign (Lvar v, _) -> acc := Varset.add v !acc
    | Sdecl (_, v, _) -> acc := Varset.add v !acc
    | _ -> ()
  in
  let rec walk s =
    match s.skind with
    | Sfor (init, _, step, b) ->
        Option.iter of_stmt init;
        Option.iter of_stmt step;
        List.iter walk b
    | Sif (_, b1, b2) -> List.iter walk b1; List.iter walk b2
    | Swhile (_, b) | Sblock b -> List.iter walk b
    | Sacc (_, b) -> Option.iter walk b
    | Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue ->
        ()
  in
  List.iter walk body;
  !acc

(* Clauses of inner "#pragma acc loop" directives nested in the body. *)
let inner_loop_clauses body =
  let acc = ref [] in
  List.iter
    (iter_stmt (fun s ->
         match s.skind with
         | Sacc (({ dir = Acc_loop; _ } as d), _) -> acc := d :: !acc
         | _ -> ()))
    body;
  !acc

let loop_header ~loc init =
  match init with
  | Some { skind = Sdecl (_, v, Some e); _ } -> (v, e)
  | Some { skind = Sassign (Lvar v, e); _ } -> (v, e)
  | Some _ | None ->
      Loc.error loc "parallel loop requires an initialized loop variable"

(* Classify the scalars of a kernel body. *)
let classify_scalars ~(opts : Options.t) ~induction ~declared ~clauses
    (acc : Regions.t) =
  let private_clause =
    Varset.of_list (List.concat_map Acc.Query.private_vars clauses)
  in
  let firstprivate_clause =
    Varset.of_list (List.concat_map Acc.Query.firstprivate_vars clauses)
  in
  let reduction_clause = List.concat_map Acc.Query.reductions clauses in
  let auto_private =
    if opts.auto_recognize then Regions.privatizable acc else Varset.empty
  in
  let interesting =
    Varset.diff (Varset.diff acc.Regions.scalars_written declared) induction
  in
  let classify v =
    if Varset.mem v private_clause then Some (v, Sc_private)
    else if Varset.mem v firstprivate_clause then Some (v, Sc_firstprivate)
    else
      match List.find_opt (fun (_, rv) -> rv = v) reduction_clause with
      | Some (op, _) -> Some (v, Sc_reduction op)
      | None ->
          if Varset.mem v auto_private then Some (v, Sc_private)
          else
            let accum = List.assoc_opt v acc.Regions.accumulators in
            match accum with
            | Some op when opts.auto_recognize -> Some (v, Sc_reduction op)
            | Some _ ->
                (* Unrecognized accumulator: loop-carried read-modify-write,
                   an active race on real hardware. *)
                Some (v, Sc_raced Race_active)
            | None -> (
                match Hashtbl.find_opt acc.Regions.first_access v with
                | Some Regions.First_write ->
                    (* Privatizable but not privatized: the backend caches
                       the thread's value in a register, which hides the
                       race (§IV-B). *)
                    Some (v, Sc_raced Race_latent)
                | Some Regions.First_read | None ->
                    Some (v, Sc_raced Race_active))
  in
  List.filter_map classify (Varset.elements interesting)

(* Would this kernel contain private data if clauses/recognition were on?
   (Table II's "kernels containing private data".) *)
let has_private_data ~induction ~declared ~clauses (acc : Regions.t) =
  let private_clause =
    Varset.of_list (List.concat_map Acc.Query.private_vars clauses)
  in
  let candidates =
    Varset.union private_clause
      (Varset.diff (Varset.diff (Regions.privatizable acc) declared) induction)
  in
  not (Varset.is_empty candidates)

let has_reduction ~clauses (acc : Regions.t) =
  List.exists (fun c -> Acc.Query.reductions c <> []) clauses
  || acc.Regions.accumulators <> []

(* ----------------------------- interface ----------------------------- *)

(* The names a kernel takes from the host, found by one walk with the
   scoping of [Eval] and [Resolve]: an [if] or [while] body and a block
   open a scope, a [for] one around its header and another around its
   body, a statement under a directive stays in the current scope, and a
   declaration reads its extents and initializer before it declares its
   name.  A use where no declaration of the name is in scope is free:
   [free] lists each free name once, the latest first occurrence first.
   [calls] collects the functions called. *)
type walk = {
  seen : (string, unit) Hashtbl.t;
  mutable free : string list;
  mutable calls : string list;
}

let walk () = { seen = Hashtbl.create 16; free = []; calls = [] }

let rec expr w bound = function
  | Eint _ | Efloat _ -> ()
  | Evar v ->
      if not (Varset.mem v bound || Hashtbl.mem w.seen v) then begin
        Hashtbl.replace w.seen v ();
        w.free <- v :: w.free
      end
  | Eindex (a, b) | Ebinop (_, a, b) -> expr w bound a; expr w bound b
  | Eunop (_, a) -> expr w bound a
  | Ecall (f, args) -> w.calls <- f :: w.calls; List.iter (expr w bound) args
  | Econd (c, a, b) -> List.iter (expr w bound) [ c; a; b ]

let rec lvalue w bound = function
  | Lvar v -> expr w bound (Evar v)
  | Lindex (b, i) -> lvalue w bound b; expr w bound i

let rec extents w bound = function
  | Tarr (t, e) -> Option.iter (expr w bound) e; extents w bound t
  | Tptr _ | Tint | Tfloat | Tvoid -> ()

(* Walk [s] with [bound] declared; returns what is declared after it. *)
let rec stmt w bound s =
  match s.skind with
  | Sskip | Sbreak | Scontinue | Sreturn None -> bound
  | Sexpr e | Sreturn (Some e) -> expr w bound e; bound
  | Sassign (l, e) -> lvalue w bound l; expr w bound e; bound
  | Sdecl (t, v, init) ->
      extents w bound t;
      Option.iter (expr w bound) init;
      Varset.add v bound
  | Sif (c, b1, b2) -> expr w bound c; block w bound b1; block w bound b2; bound
  | Swhile (c, b) -> expr w bound c; block w bound b; bound
  | Sfor (init, cond, step, b) ->
      block w (header w bound init cond step) b;
      bound
  | Sblock b -> block w bound b; bound
  | Sacc (_, b) -> Option.fold ~none:bound ~some:(stmt w bound) b

and block w bound b = ignore (List.fold_left (stmt w) bound b)

(* A [for] header; returns what its body sees declared. *)
and header w bound init cond step =
  let bound = Option.fold ~none:bound ~some:(stmt w bound) init in
  Option.iter (expr w bound) cond;
  Option.iter (fun s -> ignore (stmt w bound s)) step;
  bound

(* The program's global variables that the functions [calls] call name,
   following calls through one another: a callee sees its parameters,
   its own scopes and the globals. *)
let callee_globals prog = function
  | [] -> []
  | calls ->
      let w = walk () and entered = Hashtbl.create 8 in
      let rec enter f =
        if not (Hashtbl.mem entered f) then begin
          Hashtbl.replace entered f ();
          w.calls <- [];
          Option.iter
            (fun fn ->
              let params = List.map (fun p -> p.p_name) fn.f_params in
              block w (Varset.of_list params) fn.f_body)
            (find_function prog f);
          List.iter enter w.calls
        end
      in
      List.iter enter calls;
      let global n = function Gvar (_, g, _) -> g = n | Gfunc _ -> false in
      List.filter (fun n -> List.exists (global n) prog.globals) w.free

(* A kernel's interface: its free names, those of its loop header (a
   suffix of the first), and the globals its callees name. *)
let interface prog source =
  let w = walk () in
  let header_inputs =
    match source.skind with
    | Sfor (init, cond, step, b) ->
        let bound = header w Varset.empty init cond step in
        let header_inputs = w.free in
        block w bound b;
        header_inputs
    | _ -> ignore (stmt w Varset.empty source); []
  in
  (w.free, header_inputs, callee_globals prog w.calls)

(* Requested launch dimensions from gang/worker/vector-style clauses. *)
let dims_of_clauses clauses =
  let find f = List.find_map (fun d -> List.find_map f d.clauses) clauses in
  let gangs =
    find (function
      | Cnum_gangs e | Cgang (Some e) -> Some e
      | _ -> None)
  in
  let workers =
    find (function
      | Cnum_workers e | Cworker (Some e) -> Some e
      | _ -> None)
  in
  let vlen =
    find (function
      | Cvector_length e | Cvector (Some e) -> Some e
      | _ -> None)
  in
  (gangs, workers, vlen)

let mk_kernel ~(opts : Options.t) ~alias ~prog ~fname ~id ~sid ~loc ~clauses
    ~async ~seq ~source loop body =
  let acc = Regions.analyze ~alias body in
  let induction =
    match loop with
    | Some (v, _, _, _) -> induction_vars v body
    | None -> induction_vars "" body
  in
  let declared = acc.Regions.declared in
  let scalars = classify_scalars ~opts ~induction ~declared ~clauses acc in
  let kloop =
    Option.map
      (fun (v, init, cond, step) ->
        { kl_var = v; kl_init = init; kl_cond = cond; kl_step = step })
      loop
  in
  let inputs, header_inputs, globals = interface prog source in
  let roots names =
    List.fold_left (fun r v -> Varset.union (Alias.resolve alias v) r)
      Varset.empty names
  in
  (* Only what the host can name is transferred: an array the kernel
     declares is its own, and one it reaches through a pointer it
     declares is the pointer's host target.  Arrays the loop header
     reads are kernel inputs too: every shard steps the driver against
     its own device's buffers. *)
  let host = roots inputs in
  {
    k_id = id;
    k_name = Printf.sprintf "%s_kernel%d" fname id;
    k_sid = sid;
    k_loc = loc;
    k_loop = kloop;
    k_body = body;
    k_source = source;
    k_inputs = inputs;
    k_header_inputs = header_inputs;
    k_globals = globals;
    k_scalars = scalars;
    k_arrays_read =
      Varset.union (roots header_inputs)
        (Varset.inter host acc.Regions.arrays_read);
    k_arrays_written = Varset.inter host acc.Regions.arrays_written;
    k_induction = induction;
    k_ops_per_iter = max 1 acc.Regions.ops;
    k_async = async;
    k_dims = dims_of_clauses clauses;
    k_has_private_data = has_private_data ~induction ~declared ~clauses acc;
    k_has_reduction = has_reduction ~clauses acc;
    k_seq = seq;
  }

(** Outline the kernels of one compute region.

    [fresh] allocates kernel ids.  Returns kernels in execution order. *)
let outline_region ~opts ~alias ~prog ~fname ~fresh ~region_sid
    (d : directive) body_stmt =
  let base_clauses = [ d ] in
  let async = Acc.Query.async d |> Option.map (Option.value ~default:(Eint 0)) in
  let mk_loop_kernel ~extra_dirs (s : stmt) =
    match s.skind with
    | Sfor (init, cond, step, body) ->
        let v, init_e = loop_header ~loc:s.sloc init in
        let cond =
          match cond with
          | Some c -> c
          | None -> Loc.error s.sloc "parallel loop requires a condition"
        in
        let clauses =
          base_clauses @ extra_dirs @ inner_loop_clauses body
        in
        let seq =
          List.exists Acc.Query.has_seq (base_clauses @ extra_dirs)
        in
        (* A parallel loop's iteration space is walked from its header
           alone, before any thread runs, so the header must advance the
           loop variable. *)
        if Option.is_none step && not seq then
          Loc.error s.sloc "parallel loop requires an increment";
        mk_kernel ~opts ~alias ~prog ~fname ~id:(fresh ()) ~sid:region_sid
          ~loc:s.sloc ~clauses ~async ~seq ~source:s
          (Some (v, init_e, cond, step))
          body
    | _ -> Loc.error s.sloc "loop directive must annotate a for loop"
  in
  let mk_scalar_kernel stmts loc =
    mk_kernel ~opts ~alias ~prog ~fname ~id:(fresh ()) ~sid:region_sid ~loc
      ~clauses:base_clauses ~async ~seq:false
      ~source:(Minic.Ast.mk_stmt ~loc (Sblock stmts))
      None stmts
  in
  match d.dir with
  | Acc_parallel_loop | Acc_kernels_loop ->
      [ mk_loop_kernel ~extra_dirs:[] body_stmt ]
  | Acc_parallel | Acc_kernels ->
      let items =
        match body_stmt.skind with
        | Sblock b -> b
        | _ -> [ body_stmt ]
      in
      (* Group: loops (possibly behind a loop directive) become kernels;
         runs of other statements become single-thread kernels. *)
      let rec group acc pending = function
        | [] -> flush_pending acc pending
        | ({ skind = Sfor _; _ } as s) :: rest ->
            let acc = flush_pending acc pending in
            group (mk_loop_kernel ~extra_dirs:[] s :: acc) [] rest
        | { skind = Sacc (({ dir = Acc_loop; _ } as ld), Some inner); _ }
          :: rest ->
            let acc = flush_pending acc pending in
            group (mk_loop_kernel ~extra_dirs:[ ld ] inner :: acc) [] rest
        | s :: rest -> group acc (s :: pending) rest
      and flush_pending acc pending =
        match pending with
        | [] -> acc
        | _ ->
            let stmts = List.rev pending in
            let first = List.hd stmts in
            mk_scalar_kernel stmts first.sloc :: acc
      in
      List.rev (group [] [] items)
  | Acc_data | Acc_host_data | Acc_loop | Acc_update | Acc_declare
  | Acc_wait _ | Acc_cache _ ->
      invalid_arg "Outline.outline_region: not a compute construct"
