(* Differential engine equivalence: the closure-compiled engine must be
   observably *bit-identical* to the tree walker — same outputs (to the
   bit), same [ops] accounting, same trace counters (minus the engine's
   own [engine_*] compile counters), same coherence reports, and same
   verification verdicts — across the full twelve-benchmark suite, on
   one device and on sharded 2/4-device sets, plus a fault-matrix slice
   and a device-loss failover exercising the resilient runtime under
   both engines.  This contract is what lets the wall-clock benchmark tier
   (and users) swap engines freely. *)

open Minic

let tree = Accrt.Engine.Tree
let compiled = Accrt.Engine.Compiled

(* Bitwise scalar identity: stricter than (=) on floats (distinguishes
   -0.0 from 0.0, identifies equal NaNs). *)
let scalar_bits = function
  | Accrt.Value.Int n -> (0, Int64.of_int n)
  | Accrt.Value.Flt x -> (1, Int64.bits_of_float x)

let binding_identical b1 b2 =
  match (b1, b2) with
  | Some (Accrt.Value.Scalar c1), Some (Accrt.Value.Scalar c2) ->
      scalar_bits c1.Accrt.Value.v = scalar_bits c2.Accrt.Value.v
  | Some (Accrt.Value.Array { buf = Some a1; _ }),
    Some (Accrt.Value.Array { buf = Some a2; _ }) ->
      Gpusim.Buf.equal a1 a2
  | Some (Accrt.Value.Array { buf = None; _ }),
    Some (Accrt.Value.Array { buf = None; _ })
  | None, None ->
      true
  | _ -> false

let check_outputs what env1 env2 outputs =
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Fmt.str "%s: output '%s' bit-identical" what name)
        true
        (binding_identical (Accrt.Value.lookup env1 name)
           (Accrt.Value.lookup env2 name)))
    outputs

(* The engine's own compile counters are the one intentional observable
   difference; everything else must agree exactly. *)
let sans_engine cs =
  List.filter
    (fun (n, _) -> not (String.length n >= 7 && String.sub n 0 7 = "engine_"))
    cs

let counters tr = List.sort compare (sans_engine (Obs.Trace.counters tr))

let stats_tuple (s : Accrt.Resilience.stats) =
  ( s.Accrt.Resilience.retries,
    s.Accrt.Resilience.retransfers,
    s.Accrt.Resilience.reexecs,
    s.Accrt.Resilience.fallbacks,
    s.Accrt.Resilience.verified,
    s.Accrt.Resilience.unrecovered,
    s.Accrt.Resilience.device_lost )

let diff_variant (b : Suite.Bench_def.t) variant src =
  let what = Fmt.str "%s/%s" b.name variant in
  let prog = Parser.parse_string ~file:b.name src in
  (* 1. Sequential reference: tree walker vs compiled mirror engine. *)
  let rt = Accrt.Eval.run_reference prog in
  let rc = Accrt.Compile.reference ~engine:compiled prog in
  Alcotest.(check int)
    (what ^ ": reference ops identical")
    rt.Accrt.Eval.ops rc.Accrt.Eval.ops;
  check_outputs (what ^ " reference") rt.Accrt.Eval.env rc.Accrt.Eval.env
    b.outputs;
  (* 2. Translated-program interpreter, uninstrumented. *)
  let tenv = Typecheck.check prog in
  let tp = Codegen.Translate.translate tenv prog in
  let run engine =
    let tr = Obs.Trace.create () in
    let o = Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~obs:tr tp in
    (o, tr)
  in
  let ot, trt = run tree in
  let oc, trc = run compiled in
  Alcotest.(check int)
    (what ^ ": interpreter ops identical")
    ot.Accrt.Interp.ctx.Accrt.Eval.ops oc.Accrt.Interp.ctx.Accrt.Eval.ops;
  check_outputs (what ^ " interpreter") ot.Accrt.Interp.ctx.Accrt.Eval.env
    oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
  Alcotest.(check bool)
    (what ^ ": trace counters identical (sans engine_*)")
    true
    (counters trt = counters trc);
  (* 3. Instrumented run: the coherence verdicts must agree exactly. *)
  let ti = Codegen.Checkgen.instrument tp in
  let oi_t = Accrt.Interp.run ~coherence:true ~engine:tree ~seed:42 ti in
  let oi_c = Accrt.Interp.run ~coherence:true ~engine:compiled ~seed:42 ti in
  check_outputs (what ^ " instrumented")
    oi_t.Accrt.Interp.ctx.Accrt.Eval.env oi_c.Accrt.Interp.ctx.Accrt.Eval.env
    b.outputs;
  Alcotest.(check bool)
    (what ^ ": coherence reports identical")
    true
    (Accrt.Interp.reports oi_t = Accrt.Interp.reports oi_c)

let bench_case (b : Suite.Bench_def.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      diff_variant b "unopt" b.source;
      diff_variant b "opt" b.optimized)

(* [Interp.run]'s [devices] defaults to 1, and every set size takes the
   same runtime path, so this checks the default argument: an explicit
   [~devices:1] under either schedule (which one member ignores) must be
   bit-identical to passing nothing — outputs, [ops] accounting, trace
   counters, the simulated clock, the per-directive profile document, and
   the Chrome trace — under both engines.  Identity with the
   pre-device-set runtime is held by the committed goldens. *)
let profile_categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

let diff_devices1 (b : Suite.Bench_def.t) =
  let prog = Parser.parse_string ~file:b.name b.source in
  let tenv = Typecheck.check prog in
  let tp = Codegen.Translate.translate tenv prog in
  List.iter
    (fun engine ->
      let run ?devices ?schedule () =
        let tr = Obs.Trace.create () in
        let o =
          Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~trace:true
            ?devices ?schedule ~obs:tr tp
        in
        (o, tr)
      in
      let profile_json tr =
        Obs.Profile.to_json ~name:b.name ~seed:42
          (Obs.Profile.of_trace ~categories:profile_categories tr)
      in
      let chrome (o : Accrt.Interp.outcome) =
        Gpusim.Timeline.to_chrome_json
          o.Accrt.Interp.device.Gpusim.Device.timeline
      in
      let o0, tr0 = run () in
      List.iter
        (fun schedule ->
          let o1, tr1 = run ~devices:1 ~schedule () in
          let what =
            Fmt.str "%s/%s/%s --devices 1" b.name (Accrt.Engine.to_string engine)
              (Gpusim.Device_set.schedule_name schedule)
          in
          check_outputs what o0.Accrt.Interp.ctx.Accrt.Eval.env
            o1.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
          Alcotest.(check int)
            (what ^ ": ops identical")
            o0.Accrt.Interp.ctx.Accrt.Eval.ops
            o1.Accrt.Interp.ctx.Accrt.Eval.ops;
          Alcotest.(check bool)
            (what ^ ": trace counters identical")
            true
            (counters tr0 = counters tr1);
          Alcotest.(check bool)
            (what ^ ": simulated clock identical")
            true
            (Int64.bits_of_float
               (Gpusim.Metrics.total_time (Accrt.Interp.metrics o0))
            = Int64.bits_of_float
                (Gpusim.Metrics.total_time (Accrt.Interp.metrics o1)));
          Alcotest.(check string)
            (what ^ ": profile document byte-identical")
            (profile_json tr0) (profile_json tr1);
          Alcotest.(check string)
            (what ^ ": chrome trace byte-identical")
            (chrome o0) (chrome o1))
        [ Gpusim.Device_set.Block; Gpusim.Device_set.Cyclic ];
      (* The data-movement ledger is a pure observer: attaching one to
         the same --devices 1 run must leave every observable unchanged
         (outputs, ops, counters, clock, profile, Chrome trace) while
         its counted totals conserve the DMA accumulators exactly. *)
      let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
      let trl = Obs.Trace.create () in
      let ol =
        Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~trace:true
          ~devices:1 ~schedule:Gpusim.Device_set.Block ~ledger:lg ~obs:trl
          tp
      in
      let what =
        Fmt.str "%s/%s --devices 1 +ledger" b.name
          (Accrt.Engine.to_string engine)
      in
      check_outputs what o0.Accrt.Interp.ctx.Accrt.Eval.env
        ol.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
      Alcotest.(check int)
        (what ^ ": ops identical")
        o0.Accrt.Interp.ctx.Accrt.Eval.ops
        ol.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool)
        (what ^ ": trace counters identical")
        true
        (counters tr0 = counters trl);
      Alcotest.(check bool)
        (what ^ ": simulated clock identical")
        true
        (Int64.bits_of_float
           (Gpusim.Metrics.total_time (Accrt.Interp.metrics o0))
        = Int64.bits_of_float
            (Gpusim.Metrics.total_time (Accrt.Interp.metrics ol)));
      Alcotest.(check string)
        (what ^ ": profile document byte-identical")
        (profile_json tr0) (profile_json trl);
      Alcotest.(check string)
        (what ^ ": chrome trace byte-identical")
        (chrome o0) (chrome ol);
      let mh, md =
        Array.fold_left
          (fun (h, d) dev ->
            let m = dev.Gpusim.Device.metrics in
            (h + m.Gpusim.Metrics.bytes_h2d, d + m.Gpusim.Metrics.bytes_d2h))
          (0, 0) ol.Accrt.Interp.devset.Gpusim.Device_set.devices
      in
      Alcotest.(check (pair int int))
        (what ^ ": ledger conserves the DMA accumulators")
        (mh, md) (Obs.Ledger.totals lg))
    [ tree; compiled ]

let devices1_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " --devices 1") `Quick (fun () ->
      diff_devices1 b)

(* Multi-device runs: sharded launches run compiled kernels under the
   compiled engine, so the engines must agree on a device set exactly as
   on one device — outputs, ops, counters, the simulated clock, the
   profile document (sans the engine's own counters), and the
   per-ordinal shard weights that shard pricing and the imbalance
   analyzer are built from. *)
let clock_bits (o : Accrt.Interp.outcome) =
  Int64.bits_of_float (Gpusim.Metrics.total_time (Accrt.Interp.metrics o))

let shard_weights (o : Accrt.Interp.outcome) =
  match o.Accrt.Interp.imbalance with
  | None -> []
  | Some il ->
      List.map
        (fun (l : Obs.Imbalance.launch) ->
          (l.Obs.Imbalance.l_kernel, Array.to_list l.Obs.Imbalance.l_weights))
        (Obs.Imbalance.launches il)

let diff_multi_device (b : Suite.Bench_def.t) =
  let prog = Parser.parse_string ~file:b.name b.source in
  let tp = Codegen.Translate.translate (Typecheck.check prog) prog in
  List.iter
    (fun (devices, schedule) ->
      let run engine =
        let tr = Obs.Trace.create () in
        let o =
          Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~devices
            ~schedule ~obs:tr tp
        in
        let p = Obs.Profile.of_trace ~categories:profile_categories tr in
        ( o,
          tr,
          Obs.Profile.to_json ~name:b.name ~seed:42
            { p with
              Obs.Profile.p_counters = sans_engine p.Obs.Profile.p_counters
            } )
      in
      let ot, trt, pt = run tree in
      let oc, trc, pc = run compiled in
      let what =
        Fmt.str "%s --devices %d --schedule %s" b.name devices
          (Gpusim.Device_set.schedule_name schedule)
      in
      check_outputs what ot.Accrt.Interp.ctx.Accrt.Eval.env
        oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
      Alcotest.(check int)
        (what ^ ": ops identical")
        ot.Accrt.Interp.ctx.Accrt.Eval.ops oc.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool)
        (what ^ ": trace counters identical (sans engine_*)")
        true
        (counters trt = counters trc);
      Alcotest.(check bool)
        (what ^ ": simulated clock identical")
        true
        (clock_bits ot = clock_bits oc);
      Alcotest.(check string) (what ^ ": profile document identical") pt pc;
      let wt = shard_weights ot in
      Alcotest.(check bool) (what ^ ": launches were sharded") true (wt <> []);
      Alcotest.(check bool)
        (what ^ ": shard weight vectors identical")
        true
        (wt = shard_weights oc))
    [ (2, Gpusim.Device_set.Block); (2, Gpusim.Device_set.Cyclic);
      (4, Gpusim.Device_set.Block); (4, Gpusim.Device_set.Cyclic) ]

let multi_device_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " --devices 2/4") `Quick (fun () ->
      diff_multi_device b)

(* An attached span trace is pure observation: the saturate search takes
   its measurements from the very runs that check outputs, so attaching
   [~obs] must change no output bit, no [ops] count and no simulated
   time — under either engine, on one device or a device set. *)
let trace_purity (b : Suite.Bench_def.t) =
  let prog = Parser.parse_string ~file:b.name b.source in
  let tp = Codegen.Translate.translate (Typecheck.check prog) prog in
  List.iter
    (fun (engine, devices) ->
      let run ?obs () =
        Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~devices ?obs tp
      in
      let plain = run () in
      let traced = run ~obs:(Obs.Trace.create ()) () in
      let what =
        Fmt.str "%s/%s --devices %d +trace" b.name
          (Accrt.Engine.to_string engine) devices
      in
      check_outputs what plain.Accrt.Interp.ctx.Accrt.Eval.env
        traced.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
      Alcotest.(check int) (what ^ ": ops identical")
        plain.Accrt.Interp.ctx.Accrt.Eval.ops
        traced.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool) (what ^ ": simulated clock identical") true
        (clock_bits plain = clock_bits traced))
    (List.concat_map
       (fun d -> [ (tree, d); (compiled, d) ])
       [ 1; 2; 4 ])

let trace_purity_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " trace observer is pure") `Quick (fun () ->
      trace_purity b)

(* Device-loss failover on a 2-device set: member 1 dies at the first
   kernel's launch gate and its shard re-executes on the survivor — the
   compiled shard runner included — with identical results and
   recovery accounting under both engines. *)
let test_failover_diff () =
  let b = Option.get (Suite.Registry.find "JACOBI") in
  let prog = Parser.parse_string ~file:b.name b.source in
  let tp = Codegen.Translate.translate (Typecheck.check prog) prog in
  let target = tp.Codegen.Tprog.kernels.(0).Codegen.Tprog.k_name in
  let run engine =
    let plan =
      Gpusim.Fault_plan.create ~seed:42
        [ Gpusim.Fault_plan.mk_rule ~target ~count:1 ~dev:1
            Gpusim.Fault_plan.Device_lost ]
    in
    Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~devices:2 ~plan
      ~resilience:Accrt.Resilience.retry tp
  in
  let ot = run tree in
  let oc = run compiled in
  let what = "JACOBI --devices 2 device-lost#1" in
  check_outputs what ot.Accrt.Interp.ctx.Accrt.Eval.env
    oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
  Alcotest.(check int) (what ^ ": ops identical")
    ot.Accrt.Interp.ctx.Accrt.Eval.ops oc.Accrt.Interp.ctx.Accrt.Eval.ops;
  Alcotest.(check bool) (what ^ ": simulated clock identical") true
    (clock_bits ot = clock_bits oc);
  let failover (s : Accrt.Resilience.stats) =
    ( stats_tuple s,
      s.Accrt.Resilience.failovers,
      s.Accrt.Resilience.devices_lost )
  in
  let ft = failover ot.Accrt.Interp.resilience in
  Alcotest.(check bool) (what ^ ": recovery stats identical") true
    (ft = failover oc.Accrt.Interp.resilience);
  let _, failovers, lost = ft in
  Alcotest.(check int) (what ^ ": one member lost") 1 lost;
  Alcotest.(check bool) (what ^ ": its shard failed over") true
    (failovers >= 1);
  Alcotest.(check bool) (what ^ ": shard weight vectors identical") true
    (shard_weights ot = shard_weights oc)

(* Verification is engine-free: the compiled engine runs each compute
   region's sequential source as a register-mode region bound to the
   reference environment, the tree walker walks it, and the two must
   agree on the reports (symbolic verdicts included), the sequential op
   count and every category of the simulated cost, to the bit. *)
let check_verify what (vt : Openarc_core.Kernel_verify.t)
    (vc : Openarc_core.Kernel_verify.t) =
  let strip (r : Openarc_core.Kernel_verify.kernel_report) =
    ( r.Openarc_core.Kernel_verify.kr_kernel.Codegen.Tprog.k_name,
      r.kr_occurrences, r.kr_mismatches, r.kr_assertion_failures,
      r.kr_symbolic )
  in
  Alcotest.(check bool)
    (what ^ ": verification reports identical")
    true
    (List.map strip vt.Openarc_core.Kernel_verify.reports
    = List.map strip vc.Openarc_core.Kernel_verify.reports);
  Alcotest.(check int)
    (what ^ ": sequential ops identical")
    vt.Openarc_core.Kernel_verify.sequential_ops
    vc.Openarc_core.Kernel_verify.sequential_ops;
  List.iter
    (fun cat ->
      let bits (v : Openarc_core.Kernel_verify.t) =
        Int64.bits_of_float
          (Gpusim.Metrics.time_of v.Openarc_core.Kernel_verify.metrics cat)
      in
      Alcotest.(check int64)
        (Fmt.str "%s: %s time identical" what
           (Gpusim.Metrics.category_name cat))
        (bits vt) (bits vc))
    Gpusim.Metrics.all_categories

(* Every suite program, verified the three ways the debugging loop
   verifies it: the source and optimized builds with the symbolic tier,
   and the clause-stripped fault build under fault-injection options
   (every kernel compared numerically, injected races included). *)
let test_verify_diff () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let parse src = Parser.parse_string ~file:b.name src in
      List.iter
        (fun (variant, opts, symbolic, prog) ->
          let verify engine =
            Openarc_core.Kernel_verify.verify ~opts ~symbolic ~engine prog
          in
          check_verify
            (Fmt.str "%s/%s" b.name variant)
            (verify tree) (verify compiled))
        [ ("source", Codegen.Options.default, true, parse b.source);
          ("optimized", Codegen.Options.default, true, parse b.optimized);
          ( "fault", Codegen.Options.fault_injection, false,
            Openarc_core.Faults.strip_parallelism_clauses (parse b.source) )
        ])
    Suite.Registry.all

(* A compute region whose sequential source swaps two outer pointers of
   different lengths through a region-local temporary (an odd number of
   times, so they leave the region swapped), shadows an outer scalar with
   an inner declaration, calls a user function and accumulates a committed
   scalar.  The code after it reads the outer [k] the shadow must leave
   alone, and its op count depends on where the pointers point. *)
let region_src =
  {|float shift(float x, int k) { return x * 0.5 + float(k); }

int main() {
  int n = 16;
  int k = 3;
  float a[n];
  float b[2 * n];
  float *p;
  float *q;
  float s = 0.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); b[i] = 0.0; b[n + i] = 0.0; }
  p = a; q = b;
  #pragma acc kernels loop seq
  for (int r = 0; r < 3; r++) {
    int k = r + 1;
    for (int i = 0; i < n; i++) { q[i] = shift(p[i], k); }
    s = s + q[0];
    float *t = p; p = q; q = t;
  }
  #pragma acc kernels loop
  for (int i = 0; i < n; i++) { q[i] = p[i] + float(k) + s; }
  float c = 0.0;
  for (int i = 0; i < int(q[0]); i++) { c = c + p[i]; }
  return 0;
}|}

let test_region_diff () =
  let prog = Parser.parse_string ~file:"region" region_src in
  let verify engine = Openarc_core.Kernel_verify.verify ~engine prog in
  let vt = verify tree in
  check_verify "region" vt (verify compiled);
  Alcotest.(check int) "region: both kernels verify clean" 0
    (List.length (Openarc_core.Kernel_verify.detected_errors vt));
  (* A name the environment does not bind fails the same way, after the
     same op count, under both engines. *)
  let tp = Codegen.Translate.translate (Typecheck.check prog) prog in
  let k = tp.Codegen.Tprog.kernels.(0) in
  let unbound engine =
    let env = Accrt.Value.create () in
    let ctx = Accrt.Eval.make prog env in
    match
      match engine with
      | Accrt.Engine.Tree ->
          Accrt.Value.scoped env (fun () ->
              Accrt.Eval.exec ctx k.Codegen.Tprog.k_source)
      | Accrt.Engine.Compiled ->
          Accrt.Compile.run_source (Accrt.Compile.create_cache prog) ctx k
    with
    | () -> Alcotest.fail "region ran without its bindings"
    | exception Accrt.Value.Runtime_error m -> (m, ctx.Accrt.Eval.ops)
  in
  let mt, ot = unbound tree in
  Alcotest.(check string) "unbound name: tree message"
    "unbound variable 'n'" mt;
  Alcotest.(check (pair string int)) "unbound name: same error, same ops"
    (mt, ot) (unbound compiled)

(* Fault-matrix slice: the resilient runtime (retry, re-execution with
   validation, CPU fallback, host mode) recovers identically under both
   engines. *)
let test_fault_diff () =
  let b = Option.get (Suite.Registry.find "JACOBI") in
  let prog = Parser.parse_string ~file:b.name b.source in
  let tenv = Typecheck.check prog in
  let tp = Codegen.Translate.translate tenv prog in
  List.iter
    (fun kind ->
      let run engine =
        let plan =
          Gpusim.Fault_plan.create ~seed:7
            [ Gpusim.Fault_plan.mk_rule ~prob:0.5 kind ]
        in
        Accrt.Interp.run ~coherence:false ~engine ~seed:42 ~plan
          ~resilience:Accrt.Resilience.full tp
      in
      let ot = run tree in
      let oc = run compiled in
      let what =
        Fmt.str "JACOBI under %s" (Gpusim.Fault_plan.kind_name kind)
      in
      check_outputs what ot.Accrt.Interp.ctx.Accrt.Eval.env
        oc.Accrt.Interp.ctx.Accrt.Eval.env b.outputs;
      Alcotest.(check int) (what ^ ": ops identical")
        ot.Accrt.Interp.ctx.Accrt.Eval.ops
        oc.Accrt.Interp.ctx.Accrt.Eval.ops;
      Alcotest.(check bool)
        (what ^ ": recovery stats identical")
        true
        (stats_tuple ot.Accrt.Interp.resilience
        = stats_tuple oc.Accrt.Interp.resilience))
    [ Gpusim.Fault_plan.Xfer_fail; Gpusim.Fault_plan.Launch_fail;
      Gpusim.Fault_plan.Bit_flip; Gpusim.Fault_plan.Device_lost ]

let tests =
  List.map bench_case Suite.Registry.all
  @ List.map devices1_case Suite.Registry.all
  @ List.map multi_device_case Suite.Registry.all
  @ List.map trace_purity_case Suite.Registry.all
  @ [ Alcotest.test_case "verification verdicts" `Quick test_verify_diff;
      Alcotest.test_case "register-mode region" `Quick test_region_diff;
      Alcotest.test_case "fault matrix" `Quick test_fault_diff;
      Alcotest.test_case "device-loss failover" `Quick test_failover_diff ]
