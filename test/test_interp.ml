(* Translated-program execution: GPU results must equal the sequential
   reference for correct programs; race semantics must match the design
   (active corrupts, latent does not); reductions combine in tree order;
   async/wait, presence errors, metrics. Includes a QCheck property
   comparing reference vs translated execution on generated kernels. *)

open Minic

let run ?opts ?(instrument = false) src =
  let tp = Openarc_core.Compiler.compile ?opts src in
  let tp = if instrument then Codegen.Checkgen.instrument tp else tp in
  Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp

let reference src = Accrt.Eval.run_reference (Parser.parse_string src)

let out_f o name = Accrt.Value.to_float (Accrt.Interp.host_scalar o name)

let ref_f ctx name =
  Accrt.Value.to_float (Accrt.Value.get_scalar ctx.Accrt.Eval.env name)

let arr o name i =
  Gpusim.Buf.get_float (Accrt.Interp.host_array o name) i

let test_matches_reference () =
  let src =
    "int main() { int n = 64; float a[n]; float b[n]; float s = 0.0; float \
     t;\nfor (int i = 0; i < n; i++) { a[i] = float(i) * 0.5; }\n#pragma \
     acc data copyin(a) copyout(b)\n{\n#pragma acc kernels loop \
     private(t)\nfor (int i = 0; i < n; i++) { t = a[i] * 2.0; b[i] = t + \
     1.0; }\n}\n#pragma acc parallel loop reduction(+:s)\nfor (int i = 0; \
     i < n; i++) { s = s + b[i]; }\nreturn 0; }"
  in
  let o = run src in
  let r = reference src in
  Alcotest.(check (float 1e-9)) "reduction matches" (ref_f r "s")
    (out_f o "s");
  (* a[2] = 1.0 -> t = 2.0 -> b[2] = 3.0 *)
  Alcotest.(check (float 0.)) "array matches" 3.0 (arr o "b" 2)

let test_active_race_corrupts () =
  let src =
    "int main() { int n = 32; float a[n]; float s = 0.0;\nfor (int i = 0; i \
     < n; i++) { a[i] = 1.0; }\n#pragma acc kernels loop\nfor (int i = 0; i \
     < n; i++) { s = s + a[i]; }\nreturn 0; }"
  in
  let o = run ~opts:Codegen.Options.fault_injection src in
  (* all threads read the initial 0.0; the last writer wins: s = 1.0 *)
  Alcotest.(check (float 0.)) "last writer wins" 1.0 (out_f o "s");
  let r = reference src in
  Alcotest.(check (float 0.)) "sequential truth" 32.0 (ref_f r "s")

let test_latent_race_invisible () =
  let src =
    "int main() { int n = 32; float a[n]; float b[n]; float t;\nfor (int i \
     = 0; i < n; i++) { a[i] = float(i); }\n#pragma acc kernels loop\nfor \
     (int i = 0; i < n; i++) { t = a[i] * 3.0; b[i] = t; }\nreturn 0; }"
  in
  let o = run ~opts:Codegen.Options.fault_injection src in
  (* register promotion keeps per-thread dataflow private: outputs correct *)
  Alcotest.(check (float 0.)) "b[5]" 15.0 (arr o "b" 5);
  Alcotest.(check (float 0.)) "b[31]" 93.0 (arr o "b" 31)

let test_reduction_tree_order () =
  (* Summing values of very different magnitude: tree order differs from
     sequential order in the low bits, but stays within a loose margin. *)
  let src =
    "int main() { int n = 1000; float a[n]; float s = 0.0;\nfor (int i = 0; \
     i < n; i++) { a[i] = 1.0 / (1.0 + float(i)); }\n#pragma acc kernels \
     loop reduction(+:s)\nfor (int i = 0; i < n; i++) { s = s + a[i]; \
     }\nreturn 0; }"
  in
  let o = run src in
  let r = reference src in
  let gpu = out_f o "s" and cpu = ref_f r "s" in
  Alcotest.(check bool) "close" true (Float.abs (gpu -. cpu) < 1e-9);
  (* max reduction is exact *)
  let src_max =
    "int main() { int n = 100; float a[n]; float m = 0.0;\nfor (int i = 0; \
     i < n; i++) { a[i] = float((i * 37) % 100); }\n#pragma acc kernels \
     loop reduction(max:m)\nfor (int i = 0; i < n; i++) { m = max(m, a[i]); \
     }\nreturn 0; }"
  in
  Alcotest.(check (float 0.)) "max exact" 99.0 (out_f (run src_max) "m")

let test_firstprivate_and_params () =
  let src =
    "int main() { int n = 8; float a[n]; float bias = 5.0; float t;\nfor \
     (int i = 0; i < n; i++) { a[i] = 1.0; }\n#pragma acc kernels loop \
     firstprivate(t)\nfor (int i = 0; i < n; i++) { t = bias; a[i] = a[i] \
     + t; }\nreturn 0; }"
  in
  Alcotest.(check (float 0.)) "firstprivate + scalar param" 6.0
    (arr (run src) "a" 3)

let test_seq_kernel_semantics () =
  (* seq: genuinely sequential, loop-carried dependence allowed *)
  let src =
    "int main() { int n = 8; float a[n]; float acc = 0.0;\nfor (int i = 0; \
     i < n; i++) { a[i] = 1.0; }\n#pragma acc kernels loop seq\nfor (int i \
     = 0; i < n; i++) { acc = acc * 2.0 + a[i]; a[i] = acc; }\nreturn 0; }"
  in
  let o = run src in
  let r = reference src in
  Alcotest.(check (float 1e-9)) "seq loop-carried" (ref_f r "acc")
    (out_f o "acc")

(* The device error names the kernel and its location, under both
   engines, whole or sharded. *)
let test_present_error () =
  let src =
    "int main() { float a[4];\n#pragma acc data present(a)\n{\n#pragma acc \
     kernels loop\nfor (int i = 0; i < 4; i++) { a[i] = 1.0; }\n}\nreturn \
     0; }"
  in
  List.iter
    (fun (engine, devices) ->
      match
        Accrt.Interp.exec
          { Accrt.Interp.default with engine; devices }
          Accrt.Interp.detached
          (Openarc_core.Compiler.compile src)
      with
      | _ -> Alcotest.fail "expected presence failure"
      | exception Gpusim.Device.Device_error m ->
          Alcotest.(check string)
            (Fmt.str "%s --devices %d" (Accrt.Engine.to_string engine) devices)
            "kernel main_kernel0 at <string>:5:1: device buffer 'a' is not \
             allocated"
            m)
    [ (Accrt.Engine.Tree, 1); (Accrt.Engine.Compiled, 1);
      (Accrt.Engine.Tree, 2); (Accrt.Engine.Compiled, 2) ]

(* A subarray whose run-time bounds leave the host buffer is a typed
   runtime error naming the site and its location, raised before the
   transfer moves any state: no byte comes back to the host. *)
let test_subarray_overrun () =
  let program clause update =
    Fmt.str
      "int main() { int n = 100; int k = 1; float a[4];\n\
       #pragma acc data %s\n\
       {\n\
       #pragma acc kernels loop\n\
       for (int i = 0; i < 4; i++) { a[i] = 1.0; }\n\
       %s}\n\
       return 0; }"
      clause update
  in
  List.iter
    (fun (src, expected) ->
      List.iter
        (fun (engine, devices) ->
          let lg = Obs.Ledger.create ~devices ~schedule:"block" in
          match
            Accrt.Interp.exec
              { Accrt.Interp.default with engine; devices }
              { Accrt.Interp.detached with ledger = Some lg }
              (Openarc_core.Compiler.compile src)
          with
          | _ -> Alcotest.fail "expected a subarray overrun"
          | exception Accrt.Value.Runtime_error m ->
              let what =
                Fmt.str "%s --devices %d" (Accrt.Engine.to_string engine)
                  devices
              in
              Alcotest.(check string) what expected m;
              Alcotest.(check int) (what ^ ": no bytes downloaded") 0
                (snd (Obs.Ledger.totals lg)))
        [ (Accrt.Engine.Tree, 1); (Accrt.Engine.Compiled, 1);
          (Accrt.Engine.Compiled, 2) ])
    [ ( program "copy(a[0:n])" "",
        "subarray a[0:100] at data11.copy(a) (<string>:2:1) is outside the \
         4 element(s) of 'a'" );
      ( program "copyin(a)" "#pragma acc update host(a[k:9])\n",
        "subarray a[1:9] at update0.host(a) (<string>:6:1) is outside the 4 \
         element(s) of 'a'" ) ]

let test_async_timing () =
  let src_async =
    "int main() { int n = 4096; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\n#pragma acc kernels loop async(1)\nfor (int i = 0; i < \
     n; i++) { a[i] = a[i] * 2.0; }\nfor (int i = 0; i < n; i++) { a[i] = \
     a[i] + 0.0; }\n#pragma acc wait(1)\nreturn 0; }"
  in
  let o = run src_async in
  let m = Accrt.Interp.metrics o in
  Alcotest.(check bool) "async-wait accounted" true
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Async_wait >= 0.0);
  Alcotest.(check int) "one launch" 1 m.Gpusim.Metrics.kernel_launches

let test_pointer_kernel () =
  (* kernel accesses through a pointer use the runtime root *)
  let src =
    "int main() { int n = 8; float a[n]; float b[n]; float *p;\nfor (int i \
     = 0; i < n; i++) { a[i] = 1.0; b[i] = 2.0; }\np = b;\n#pragma acc \
     kernels loop\nfor (int i = 0; i < n; i++) { p[i] = p[i] * 10.0; \
     }\nreturn 0; }"
  in
  let o = run src in
  Alcotest.(check (float 0.)) "b written via p" 20.0 (arr o "b" 0);
  Alcotest.(check (float 0.)) "a untouched" 1.0 (arr o "a" 0)

let test_host_loop_with_break () =
  let src =
    "int main() { int n = 8; float a[n]; int stop = 0; int iters = 0;\nfor \
     (int i = 0; i < n; i++) { a[i] = 0.0; }\nfor (int k = 0; k < 100; k++) \
     {\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { a[i] = a[i] \
     + 1.0; }\niters = iters + 1;\nif (iters == 3) { break; }\n}\nreturn 0; \
     }"
  in
  let o = run src in
  Alcotest.(check (float 0.)) "three sweeps" 3.0 (arr o "a" 0)

(* Property: for race-free generated kernels, translated execution equals
   the sequential reference. *)
let translated_equals_reference =
  QCheck.Test.make ~count:60 ~name:"translated run equals reference"
    (QCheck.make
       QCheck.Gen.(
         let term =
           oneofl [ "a[i]"; "b[i]"; "float(i)"; "0.5"; "2.0"; "c" ]
         in
         let op = oneofl [ "+"; "*"; "-" ] in
         map3
           (fun t1 o t2 -> Fmt.str "%s %s %s" t1 o t2)
           term op term)
       ~print:Fun.id)
    (fun rhs ->
      let src =
        Fmt.str
          "int main() { int n = 16; float a[n]; float b[n]; float c = \
           3.0;\nfor (int i = 0; i < n; i++) { a[i] = float(i) * 0.25; b[i] \
           = 1.0; }\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) \
           { b[i] = %s; }\nreturn 0; }"
          rhs
      in
      let o = run src in
      let r = reference src in
      let rb = Accrt.Value.array_buf r.Accrt.Eval.env "b" in
      let _, bad =
        Gpusim.Buf.compare ~margin:1e-12 ~reference:rb
          (Accrt.Interp.host_array o "b")
      in
      bad = 0)

(* The program says whether it is checked: translation leaves
   [instrumented] false and instrumentation sets it, the coherence runtime
   runs exactly on an instrumented program, and the labelled wrapper
   refuses a [~coherence] that disagrees with the program and ignores a
   [~kcache]. *)
let test_instrumented_rule () =
  let tp = Openarc_core.Compiler.compile Suite.Jacobi.bench.source in
  let itp = Codegen.Checkgen.instrument tp in
  Alcotest.(check bool) "compiled: not instrumented" false
    tp.Codegen.Tprog.instrumented;
  Alcotest.(check bool) "instrumented: instrumented" true
    itp.Codegen.Tprog.instrumented;
  let run tp =
    let audit = Obs.Audit.create () in
    let o =
      Accrt.Interp.exec Accrt.Interp.default
        { Accrt.Interp.detached with audit = Some audit }
        tp
    in
    (o, Obs.Audit.length audit)
  in
  let o, transitions = run tp in
  Alcotest.(check int) "plain run: no reports" 0
    (List.length (Accrt.Interp.reports o));
  Alcotest.(check int) "plain run: no executed checks" 0
    (Accrt.Interp.metrics o).Gpusim.Metrics.checks;
  Alcotest.(check int) "plain run: no audit transitions" 0 transitions;
  let oi, transitions = run itp in
  Alcotest.(check bool) "instrumented run: reports" true
    (Accrt.Interp.reports oi <> []);
  Alcotest.(check bool) "instrumented run: audit transitions" true
    (transitions > 0);
  let refused what coherence tp =
    match Accrt.Interp.run ~coherence tp with
    | _ -> Alcotest.failf "%s: expected Invalid_argument" what
    | exception Invalid_argument _ -> ()
  in
  refused "~coherence:true on a plain program" true tp;
  refused "~coherence:false on an instrumented program" false itp;
  Alcotest.(check int) "an agreeing ~coherence runs"
    (List.length (Accrt.Interp.reports oi))
    (List.length (Accrt.Interp.reports (Accrt.Interp.run ~coherence:true itp)));
  let labelled ?kcache () =
    let tr = Obs.Trace.create () in
    let o = Accrt.Interp.run ~coherence:true ~obs:tr ?kcache itp in
    ( Accrt.Value.outputs o.Accrt.Interp.ctx.Accrt.Eval.env
        Suite.Jacobi.bench.outputs,
      o.Accrt.Interp.ctx.Accrt.Eval.ops,
      Obs.Trace.counters tr )
  in
  let outputs, ops, counters = labelled () in
  let outputs', ops', counters' =
    labelled ~kcache:(Accrt.Compile.create_store ()) ()
  in
  Alcotest.(check int) "~kcache: same outputs" 0
    (List.length
       (Accrt.Value.compare_outputs ~margin:0.0 ~reference:outputs outputs'));
  Alcotest.(check int) "~kcache: same ops" ops ops';
  Alcotest.(check (list (pair string int))) "~kcache: same counters" counters
    counters'

(* The compiled engine compiles each kernel a run launches exactly once,
   and nothing outlives the run: on every suite build at 1, 2 and 4
   devices, [engine_compiles] counts the distinct kernels named by the
   run's [Kernel] spans (a launch and its shards name one kernel), and a
   second run of the same translation compiles them all again.  The
   outcome's [compiles] and [compile_hits] equal the trace's counters. *)
let test_one_compile_per_kernel_per_run () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      List.iter
        (fun (build, src) ->
          let tp = Openarc_core.Compiler.compile src in
          List.iter
            (fun devices ->
              let what = Fmt.str "%s %s, %d device(s)" b.name build devices in
              let run () =
                let tr = Obs.Trace.create () in
                let o =
                  Accrt.Interp.exec
                    { Accrt.Interp.default with devices }
                    { Accrt.Interp.detached with trace = Some tr }
                    tp
                in
                let counter name =
                  Option.value ~default:0
                    (List.assoc_opt name (Obs.Trace.counters tr))
                in
                Alcotest.(check (pair int int))
                  (what ^ ": the outcome's counts are the trace's")
                  (counter "engine_compiles", counter "engine_compile_hits")
                  (o.Accrt.Interp.compiles, o.Accrt.Interp.compile_hits);
                tr
              in
              let compiles tr =
                Option.value ~default:0
                  (List.assoc_opt "engine_compiles" (Obs.Trace.counters tr))
              in
              let tr = run () in
              let kernels =
                List.sort_uniq String.compare
                  (List.filter_map
                     (fun (sp : Obs.Trace.span) ->
                       if sp.sp_kind = Obs.Trace.Kernel then sp.sp_directive
                       else None)
                     (Obs.Trace.spans tr))
              in
              Alcotest.(check int)
                (what ^ ": one compile per launched kernel")
                (List.length kernels) (compiles tr);
              Alcotest.(check int)
                (what ^ ": a second run compiles them again")
                (compiles tr)
                (compiles (run ())))
            [ 1; 2; 4 ])
        [ ("source", b.source); ("optimized", b.optimized) ])
    Suite.Registry.all

let tests =
  [ Alcotest.test_case "matches reference" `Quick test_matches_reference;
    Alcotest.test_case "subarray overrun" `Quick test_subarray_overrun;
    Alcotest.test_case "active race corrupts" `Quick test_active_race_corrupts;
    Alcotest.test_case "latent race invisible" `Quick
      test_latent_race_invisible;
    Alcotest.test_case "reduction tree order" `Quick test_reduction_tree_order;
    Alcotest.test_case "firstprivate and params" `Quick
      test_firstprivate_and_params;
    Alcotest.test_case "seq kernel semantics" `Quick test_seq_kernel_semantics;
    Alcotest.test_case "present error" `Quick test_present_error;
    Alcotest.test_case "async timing" `Quick test_async_timing;
    Alcotest.test_case "pointer kernel" `Quick test_pointer_kernel;
    Alcotest.test_case "host loop with break" `Quick test_host_loop_with_break;
    Alcotest.test_case "instrumented rule" `Quick test_instrumented_rule;
    Alcotest.test_case "one compile per kernel per run" `Quick
      test_one_compile_per_kernel_per_run;
    QCheck_alcotest.to_alcotest translated_equals_reference ]
