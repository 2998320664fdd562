(** GPU-kernel verification (§III-A).

    Every selected kernel is verified at each of its dynamic occurrences:
    the kernel runs on the simulated GPU against inputs produced by the
    sequential reference execution (memory-transfer demotion: all data the
    kernel reads are uploaded right before the launch), its outputs land in
    a temporary host area, the original sequential code then runs, and the
    two results are compared under the configured error margin.  The
    sequential results always win, so errors never propagate to later
    kernels — exactly the paper's scheme.

    Uploads and the kernel launch are issued asynchronously so they overlap
    with the sequential CPU execution; the host blocks just before the
    comparison (the Async-Wait component of Figure 3). *)

open Minic.Ast
open Codegen.Tprog

type kernel_report = {
  kr_kernel : kernel;
  kr_occurrences : int;  (** dynamic launches verified *)
  kr_mismatches : Accrt.Value.mismatch list;  (** aggregated over occurrences *)
  kr_assertion_failures : string list;
  kr_symbolic : Symeq.Engine.verdict option;
      (** tier-0 symbolic verdict, when the symbolic tier ran *)
}

type t = {
  reports : kernel_report list;
  metrics : Gpusim.Metrics.t;
  timeline : Gpusim.Timeline.t;  (** device events (with [trace]) *)
  sequential_ops : int;  (** sequential-reference op count, for normalization *)
  symeq : Symeq.Engine.t option;
      (** symbolic-tier verdicts for every kernel (with [symbolic]) *)
}

let kernel_ok r = r.kr_mismatches = [] && r.kr_assertion_failures = []

let detected_errors t = List.filter (fun r -> not (kernel_ok r)) t.reports

(* Scalars the kernel commits back to the host (everything classified). *)
let committed_scalars k = List.map fst k.k_scalars

(* A shadow host context holding what a launch of [k] takes from the
   host — its interface, then its callees' globals as globals — with
   fresh scalar cells, so GPU-side commits do not disturb the reference
   state.  Arrays are not copied: the kernel touches device buffers only,
   and root resolution goes through the original slots. *)
let shadow_ctx (ctx : Accrt.Eval.ctx) k =
  let env = ctx.Accrt.Eval.env and shadow = Accrt.Value.create () in
  let copy declare find n =
    match find env n with
    | Some (Accrt.Value.Scalar c) ->
        declare shadow n (Accrt.Value.Scalar { v = c.Accrt.Value.v })
    | Some (Accrt.Value.Array _ as b) -> declare shadow n b
    | None -> ()
  in
  List.iter (copy Accrt.Value.declare Accrt.Value.lookup) k.k_inputs;
  List.iter (copy Accrt.Value.declare_global Accrt.Value.global) k.k_globals;
  Accrt.Eval.make ctx.Accrt.Eval.prog shadow

(** Verify a translation.  Returns the per-kernel verdicts, the simulated
    cost of the verification run, and the cost of the pure sequential
    execution. *)
let verify_tprog ?(config = Vconfig.default) ?(engine = Accrt.Engine.Compiled)
    ?obs ?(trace = false) ?(symbolic = false) (tp : Codegen.Tprog.t) =
  (* The translated source has its directive-containing callees inlined,
     so kernel ids and the reference execution agree on one program. *)
  let prog = tp.source in
  let device = Gpusim.Device.create ~trace () in
  let metrics = device.Gpusim.Device.metrics in
  let cmodel = device.Gpusim.Device.cm in
  (match obs with
  | None -> ()
  | Some tr ->
      Obs.Trace.set_clock tr (fun () -> metrics.Gpusim.Metrics.host_clock);
      Gpusim.Device.observe device (Accrt.Interp.trace_event tr));
  let in_span kind name ?loc ?directive f =
    match obs with
    | None -> f ()
    | Some tr -> Obs.Trace.with_span tr kind name ?loc ?directive f
  in

  (* Tier 0: symbolic equivalence.  A [Proved] kernel needs no numeric
     comparison run — its occurrences execute sequentially only; the
     other verdicts fall through to the numeric comparator. *)
  let symeq =
    if not symbolic then None
    else
      Some
        (in_span Obs.Trace.Phase "symeq" (fun () ->
             let r = Symeq.Engine.check_tprog tp in
             (match obs with
             | None -> ()
             | Some tr ->
                 Obs.Trace.count tr "symeq.proved" r.Symeq.Engine.proved;
                 Obs.Trace.count tr "symeq.disproved"
                   r.Symeq.Engine.disproved;
                 Obs.Trace.count tr "symeq.unknown" r.Symeq.Engine.unknown);
             r))
  in
  let symbolic_verdict k =
    Option.bind symeq (fun r ->
        List.find_map
          (fun kv ->
            if kv.Symeq.Engine.kv_name = k.k_name then
              Some kv.Symeq.Engine.kv_verdict
            else None)
          r.Symeq.Engine.kernels)
  in
  let proved k =
    match symbolic_verdict k with
    | Some (Symeq.Engine.Proved _) -> true
    | _ -> false
  in

  (* Per-kernel aggregation. *)
  let occurrences = Hashtbl.create 16 in
  let mismatches = Hashtbl.create 16 in
  let assertion_failures : (string, string list) Hashtbl.t =
    Hashtbl.create 16 in
  let add_mismatch k m =
    let cur = Option.value ~default:[] (Hashtbl.find_opt mismatches k.k_name) in
    Hashtbl.replace mismatches k.k_name (m :: cur)
  in

  (* Kernels grouped by their compute region's statement id. *)
  let by_sid = Hashtbl.create 16 in
  Array.iter
    (fun k ->
      let cur = Option.value ~default:[] (Hashtbl.find_opt by_sid k.k_sid) in
      Hashtbl.replace by_sid k.k_sid (cur @ [ k ]))
    tp.kernels;

  let queue = 1 in
  let margin = config.Vconfig.error_margin
  and min_value = config.Vconfig.min_value in
  let charged_ops = ref 0 in
  let charge_cpu delta =
    charged_ops := !charged_ops + delta;
    Gpusim.Device.charge device Gpusim.Metrics.Cpu_time
      (Gpusim.Costmodel.cpu_time cmodel ~ops:delta)
  in

  (* Engine dispatch.  Under [Compiled], the surrounding reference run
     compiles in mirror mode, and each kernel's body and sequential source
     compile once per verification run in register mode — the source's
     names bound to the reference environment's own cells at every
     occurrence, so its writes land where the comparison reads them.
     Under [Tree], all three are tree-walked. *)
  let ecache = lazy (Accrt.Compile.create_cache prog) in
  (* A whole launch: the session's start, the engine's space pass, its
     runner with every ordinal, the commit.  Returns the iteration
     count. *)
  let exec_kernel sctx k =
    let session = Accrt.Kernel_exec.start sctx k in
    let iterations =
      match engine with
      | Accrt.Engine.Tree ->
          let space = Accrt.Kernel_exec.space session device in
          Accrt.Kernel_exec.run_shard session space device
            ~shard:(Accrt.Kernel_exec.whole space)
      | Accrt.Engine.Compiled ->
          let cache = Lazy.force ecache in
          let space = Accrt.Compile.space cache session device in
          Accrt.Compile.run_shard cache session space device
            ~shard:(Accrt.Kernel_exec.whole space)
    in
    Accrt.Kernel_exec.commit session;
    iterations
  in
  (* The sequential run of [k]'s compute region, charged as CPU time. *)
  let exec_source (ctx : Accrt.Eval.ctx) k =
    let ops0 = ctx.Accrt.Eval.ops in
    (match engine with
    | Accrt.Engine.Tree ->
        Accrt.Value.scoped ctx.Accrt.Eval.env (fun () ->
            Accrt.Eval.exec ctx k.k_source)
    | Accrt.Engine.Compiled ->
        Accrt.Compile.run_source (Lazy.force ecache) ctx k);
    charge_cpu (ctx.Accrt.Eval.ops - ops0)
  in

  let verify_kernel (ctx : Accrt.Eval.ctx) k =
    Hashtbl.replace occurrences k.k_name
      (1 + Option.value ~default:0 (Hashtbl.find_opt occurrences k.k_name));
    in_span Obs.Trace.Kernel k.k_name
      ~loc:(Minic.Loc.to_string k.k_loc) ~directive:k.k_name
    @@ fun () ->
    let env = ctx.Accrt.Eval.env in
    let arrays = Analysis.Varset.elements (kernel_arrays k) in
    (* Demoted transfers: allocate and upload everything the kernel touches,
       asynchronously. *)
    List.iter
      (fun v ->
        let host = Accrt.Value.array_buf env v in
        Gpusim.Device.alloc device v ~like:host;
        Gpusim.Device.upload device v ~host ~async:queue ())
      arrays;
    (* Launch on the GPU against a shadow scalar context. *)
    let sctx = shadow_ctx ctx k in
    let iterations = exec_kernel sctx k in
    Gpusim.Device.launch device ~iterations ~ops_per_iter:k.k_ops_per_iter
      ~async:queue ();
    (* Sequential reference execution of the original statement (overlaps
       with the asynchronous GPU work). *)
    exec_source ctx k;
    (* Synchronize, download GPU outputs to temporaries, compare. *)
    Gpusim.Device.wait device (Some queue);
    Analysis.Varset.iter
      (fun v ->
        let reference = Accrt.Value.array_buf env v in
        let gpu_copy = Gpusim.Buf.copy reference in
        Gpusim.Device.download device v ~host:gpu_copy ();
        Gpusim.Device.charge device Gpusim.Metrics.Result_comp
          (Gpusim.Costmodel.compare_time cmodel
             ~elems:(Gpusim.Buf.length reference));
        (* §III-C application-knowledge bounds: a GPU value within the
           user-declared bound for this variable is acceptable. *)
        let idx, count =
          Gpusim.Buf.compare ~min_value ?bound:(Vconfig.bound_for config v)
            ~margin ~reference gpu_copy
        in
        if count > 0 then
          add_mismatch k
            { Accrt.Value.m_what = v; m_count = count;
              m_max_diff = Gpusim.Buf.max_abs_diff reference gpu_copy;
              m_first_indices = idx };
        (* §III-C debug assertions on GPU results. *)
        List.iter
          (fun a ->
            if a.Vconfig.a_var = v && not (a.Vconfig.a_check gpu_copy) then
              Hashtbl.replace assertion_failures k.k_name
                (a.Vconfig.a_name
                 :: Option.value ~default:[]
                      (Hashtbl.find_opt assertion_failures k.k_name)))
          config.Vconfig.assertions)
      k.k_arrays_written;
    (* Compare committed scalars against the sequential values. *)
    List.iter
      (fun v ->
        match
          (Accrt.Value.lookup env v,
           Accrt.Value.lookup sctx.Accrt.Eval.env v)
        with
        | Some (Accrt.Value.Scalar c_ref), Some (Accrt.Value.Scalar c_gpu) ->
            let x = Accrt.Value.to_float c_ref.Accrt.Value.v in
            let y = Accrt.Value.to_float c_gpu.Accrt.Value.v in
            Gpusim.Device.charge device Gpusim.Metrics.Result_comp
              (Gpusim.Costmodel.compare_time cmodel ~elems:1);
            if
              not
                (Gpusim.Buf.matches ~min_value
                   ?bound:(Vconfig.bound_for config v) ~margin ~reference:x y)
            then
              add_mismatch k
                { Accrt.Value.m_what = v; m_count = 1;
                  m_max_diff = Float.abs (x -. y); m_first_indices = [] }
        | _ -> ())
      (committed_scalars k);
    (* Release the demoted allocations. *)
    List.iter (fun v -> Gpusim.Device.free device v) arrays
  in

  (* Reference execution with a hook that intercepts compute regions. *)
  let hook (ctx : Accrt.Eval.ctx) s =
    match s.skind with
    | Sacc (d, Some _) when Acc.Query.is_compute d.dir -> (
        match Hashtbl.find_opt by_sid s.sid with
        | None -> false
        | Some kernels ->
            List.iter
              (fun k ->
                let selected = Vconfig.selects config k.k_name in
                if selected && not (proved k) then verify_kernel ctx k
                else begin
                  (* Unselected kernels — and kernels the symbolic tier
                     already proved equivalent — run sequentially only. *)
                  if selected then
                    Hashtbl.replace occurrences k.k_name
                      (1
                      + Option.value ~default:0
                          (Hashtbl.find_opt occurrences k.k_name));
                  exec_source ctx k
                end)
              kernels;
            true)
    | _ -> false
  in
  let vctx =
    in_span Obs.Trace.Phase "verify" (fun () ->
        Accrt.Compile.reference ~engine ~hook prog)
  in
  (* Host work outside compute regions (regions were charged as they ran). *)
  Gpusim.Device.charge device Gpusim.Metrics.Cpu_time
    (Gpusim.Costmodel.cpu_time cmodel
       ~ops:(max 0 (vctx.Accrt.Eval.ops - !charged_ops)));

  let reports =
    Array.to_list tp.kernels
    |> List.filter (fun k -> Vconfig.selects config k.k_name)
    |> List.map (fun k ->
           { kr_kernel = k;
             kr_occurrences =
               Option.value ~default:0 (Hashtbl.find_opt occurrences k.k_name);
             kr_mismatches =
               List.rev
                 (Option.value ~default:[]
                    (Hashtbl.find_opt mismatches k.k_name));
             kr_assertion_failures =
               Option.value ~default:[]
                 (Hashtbl.find_opt assertion_failures k.k_name);
             kr_symbolic = symbolic_verdict k })
  in
  (* The hooked run is the sequential reference: every compute region
     ran its kernels' sequential sources, so its op count is the
     normalization baseline. *)
  { reports; metrics; timeline = device.Gpusim.Device.timeline;
    sequential_ops = vctx.Accrt.Eval.ops; symeq }

(** Verify [prog].  [opts] controls translation (use
    {!Codegen.Options.fault_injection} to reproduce Table II). *)
let verify ?opts ?config ?engine ?obs ?trace ?symbolic prog =
  verify_tprog ?config ?engine ?obs ?trace ?symbolic
    (Compiler.compile_program ?opts prog)

let pp_report ppf r =
  if kernel_ok r then
    Fmt.pf ppf "[OK]   %s (%d occurrence(s))%s" r.kr_kernel.k_name
      r.kr_occurrences
      (match r.kr_symbolic with
      | Some (Symeq.Engine.Proved _) -> " [symbolically proved]"
      | _ -> "")
  else begin
    Fmt.pf ppf "[FAIL] %s (%d occurrence(s)):" r.kr_kernel.k_name
      r.kr_occurrences;
    List.iter
      (fun m ->
        Fmt.pf ppf "@,  %s: %d element(s) differ, max |diff| = %g"
          m.Accrt.Value.m_what m.m_count m.m_max_diff)
      r.kr_mismatches;
    List.iter
      (fun a -> Fmt.pf ppf "@,  assertion '%s' failed" a)
      r.kr_assertion_failures
  end
