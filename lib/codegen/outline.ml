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

let mk_kernel ~(opts : Options.t) ~alias ~fname ~id ~sid ~loc ~clauses
    ~async ~seq ~source loop body =
  let acc = Regions.analyze ~alias body in
  let induction =
    match loop with
    | Some (v, _, _, _) -> induction_vars v body
    | None -> induction_vars "" body
  in
  let declared = acc.Regions.declared in
  let scalars = classify_scalars ~opts ~induction ~declared ~clauses acc in
  let classified = Varset.of_list (List.map fst scalars) in
  let params =
    Varset.diff
      (Varset.diff (Varset.diff acc.Regions.scalars_read classified) declared)
      induction
  in
  let kloop =
    Option.map
      (fun (v, init, cond, step) ->
        { kl_var = v; kl_init = init; kl_cond = cond; kl_step = step;
          kl_body = body })
      loop
  in
  (* Arrays the loop header reads are kernel inputs too: every shard
     steps the driver against its own device's buffers. *)
  let header_reads =
    match loop with
    | Some (_, init, cond, step) ->
        Regions.arrays_read ~alias [ init; cond ] (Option.to_list step)
    | None -> Varset.empty
  in
  {
    k_id = id;
    k_name = Fmt.str "%s_kernel%d" fname id;
    k_sid = sid;
    k_loc = loc;
    k_loop = kloop;
    k_body = body;
    k_source = source;
    k_scalars = scalars;
    k_arrays_read = Varset.union acc.Regions.arrays_read header_reads;
    k_arrays_written = acc.Regions.arrays_written;
    k_params = params;
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
let outline_region ~opts ~alias ~fname ~fresh ~region_sid (d : directive)
    body_stmt =
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
        mk_kernel ~opts ~alias ~fname ~id:(fresh ()) ~sid:region_sid
          ~loc:s.sloc ~clauses ~async ~seq ~source:s
          (Some (v, init_e, cond, step))
          body
    | _ -> Loc.error s.sloc "loop directive must annotate a for loop"
  in
  let mk_scalar_kernel stmts loc =
    mk_kernel ~opts ~alias ~fname ~id:(fresh ()) ~sid:region_sid ~loc
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
