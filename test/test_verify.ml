(* Kernel verification (§III-A): detection of injected races, error-margin
   and minValueToCheck configuration, kernel selection with complement,
   value bounds, debug assertions, the demotion pass, and Figure-3-style
   metrics. *)

open Minic

let prog src = Parser.parse_string src

let faulty_src =
  "int main() { int n = 32; float a[n]; float b[n]; float t; float s = \
   0.0;\nfor (int i = 0; i < n; i++) { a[i] = float(i) * 0.1; }\n#pragma \
   acc kernels loop\nfor (int i = 0; i < n; i++) { t = a[i] * 2.0; b[i] = \
   t; }\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { s = s + \
   b[i]; }\nreturn 0; }"

let verify ?opts ?config src =
  Openarc_core.Kernel_verify.verify ?opts ?config (prog src)

let names_of_failures v =
  List.map
    (fun r -> r.Openarc_core.Kernel_verify.kr_kernel.Codegen.Tprog.k_name)
    (Openarc_core.Kernel_verify.detected_errors v)

let test_correct_program_passes () =
  let v = verify faulty_src in
  Alcotest.(check (list string)) "no errors" [] (names_of_failures v);
  Alcotest.(check int) "two kernels verified" 2
    (List.length v.Openarc_core.Kernel_verify.reports)

let test_fault_injection_detection () =
  let v = verify ~opts:Codegen.Options.fault_injection faulty_src in
  (* the broken reduction (kernel1) is active and detected; the broken
     privatization (kernel0) is latent and invisible *)
  Alcotest.(check (list string)) "only the reduction kernel fails"
    [ "main_kernel1" ] (names_of_failures v)

let test_occurrences_counted () =
  let src =
    "int main() { int n = 8; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\nfor (int k = 0; k < 5; k++) {\n#pragma acc kernels \
     loop\nfor (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }\n}\nreturn \
     0; }"
  in
  let v = verify src in
  match v.Openarc_core.Kernel_verify.reports with
  | [ r ] ->
      Alcotest.(check int) "five occurrences" 5
        r.Openarc_core.Kernel_verify.kr_occurrences
  | _ -> Alcotest.fail "one kernel"

let test_kernel_selection () =
  let opts = Codegen.Options.fault_injection in
  let config =
    Openarc_core.Vconfig.of_string "complement=0,kernels=main_kernel0"
  in
  let v = verify ~opts ~config faulty_src in
  Alcotest.(check int) "only kernel0 verified" 1
    (List.length v.Openarc_core.Kernel_verify.reports);
  (* complement=1: everything except kernel0, so the bad kernel1 is hit *)
  let config' =
    Openarc_core.Vconfig.of_string "complement=1,kernels=main_kernel0"
  in
  let v' = verify ~opts ~config:config' faulty_src in
  Alcotest.(check (list string)) "kernel1 caught" [ "main_kernel1" ]
    (names_of_failures v')

let test_error_margin () =
  (* A tiny injected difference: strict margin reports it, loose accepts. *)
  let opts = Codegen.Options.fault_injection in
  let strict = { Openarc_core.Vconfig.default with error_margin = 1e-12 } in
  let loose = { Openarc_core.Vconfig.default with error_margin = 1e6 } in
  let v_strict = verify ~opts ~config:strict faulty_src in
  let v_loose = verify ~opts ~config:loose faulty_src in
  Alcotest.(check bool) "strict detects" true
    (names_of_failures v_strict <> []);
  Alcotest.(check (list string)) "loose forgives" []
    (names_of_failures v_loose)

let test_min_value_to_check () =
  (* Race on values all below the threshold: skipped by minValueToCheck. *)
  let src =
    "int main() { int n = 8; float a[n]; float s = 0.0;\nfor (int i = 0; i \
     < n; i++) { a[i] = 1e-40; }\n#pragma acc kernels loop\nfor (int i = \
     0; i < n; i++) { s = s + a[i]; }\nreturn 0; }"
  in
  let opts = Codegen.Options.fault_injection in
  let skip =
    { Openarc_core.Vconfig.default with min_value = 1e-32;
      error_margin = 0.0 }
  in
  let v = verify ~opts ~config:skip src in
  Alcotest.(check (list string)) "below minValueToCheck" []
    (names_of_failures v)

let test_value_bounds () =
  (* §III-C: differences whose GPU value stays inside a user-declared
     per-variable bound are acceptable and suppressed. *)
  let src =
    "int main() { int n = 8; float a[n]; float s = 0.0;\nfor (int i = 0; \
     i < n; i++) { a[i] = 0.25; }\n#pragma acc kernels loop\nfor (int i \
     = 0; i < n; i++) { s = s + a[i]; }\nreturn 0; }"
  in
  (* the raced accumulator ends at 0.25 instead of 2.0 *)
  let opts = Codegen.Options.fault_injection in
  let v = verify ~opts src in
  Alcotest.(check bool) "baseline: detected" true
    (names_of_failures v <> []);
  (* the user declares any s in [0, 10] acceptable: absorbed *)
  let bounded =
    { Openarc_core.Vconfig.default with
      bounds = [ { Openarc_core.Vconfig.b_var = "s"; b_min = 0.0;
                   b_max = 10.0 } ] }
  in
  let v' = verify ~opts ~config:bounded src in
  Alcotest.(check (list string)) "absorbed by the bound" []
    (names_of_failures v');
  (* a tighter bound that excludes the corrupted value still detects *)
  let tight =
    { Openarc_core.Vconfig.default with
      bounds = [ { Openarc_core.Vconfig.b_var = "s"; b_min = 1.0;
                   b_max = 10.0 } ] }
  in
  let v'' = verify ~opts ~config:tight src in
  Alcotest.(check bool) "tight bound still detects" true
    (names_of_failures v'' <> [])

let test_debug_assertion () =
  (* §III-C: a user checksum assertion fires on GPU output. *)
  let config =
    { Openarc_core.Vconfig.default with
      assertions =
        [ { Openarc_core.Vconfig.a_name = "b stays positive"; a_var = "b";
            a_check =
              (fun buf ->
                let ok = ref true in
                for i = 0 to Gpusim.Buf.length buf - 1 do
                  if Gpusim.Buf.get_float buf i < -1.0 then ok := false
                done;
                !ok) } ] }
  in
  let v = verify ~config faulty_src in
  Alcotest.(check (list string)) "assertion holds" []
    (names_of_failures v);
  let config_bad =
    { config with
      assertions =
        [ { Openarc_core.Vconfig.a_name = "impossible"; a_var = "b";
            a_check = (fun _ -> false) } ] }
  in
  let v' = verify ~config:config_bad faulty_src in
  Alcotest.(check bool) "failing assertion reported" true
    (List.exists
       (fun r -> r.Openarc_core.Kernel_verify.kr_assertion_failures <> [])
       v'.Openarc_core.Kernel_verify.reports)

let test_no_error_propagation () =
  (* Even with a corrupted first kernel, the second kernel is verified
     against clean reference inputs: only the *faulty* kernel is reported. *)
  let src =
    "int main() { int n = 16; float a[n]; float b[n]; float s = 0.0; float \
     c = 0.0;\nfor (int i = 0; i < n; i++) { a[i] = 1.0; }\n#pragma acc \
     kernels loop\nfor (int i = 0; i < n; i++) { s = s + a[i]; }\n#pragma \
     acc kernels loop\nfor (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; \
     }\nreturn 0; }"
  in
  let v = verify ~opts:Codegen.Options.fault_injection src in
  Alcotest.(check (list string)) "only the racy kernel" [ "main_kernel0" ]
    (names_of_failures v)

let test_metrics_breakdown () =
  let v = verify faulty_src in
  let m = v.Openarc_core.Kernel_verify.metrics in
  Alcotest.(check bool) "transfers happened" true
    (Gpusim.Metrics.total_bytes m > 0);
  Alcotest.(check bool) "comparison time charged" true
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Result_comp > 0.0);
  Alcotest.(check bool) "sequential baseline present" true
    (v.Openarc_core.Kernel_verify.sequential_ops > 0)

let test_vconfig_parsing () =
  let c =
    Openarc_core.Vconfig.of_string
      "verificationOptions=complement=1,kernels=k0,errorMargin=1e-6,\
       minValueToCheck=1e-32"
  in
  Alcotest.(check bool) "complement" true c.Openarc_core.Vconfig.complement;
  Alcotest.(check (list string)) "kernels" [ "k0" ]
    c.Openarc_core.Vconfig.kernels;
  Alcotest.(check (float 0.)) "margin" 1e-6
    c.Openarc_core.Vconfig.error_margin;
  Alcotest.(check (float 0.)) "min value" 1e-32
    c.Openarc_core.Vconfig.min_value;
  Alcotest.(check bool) "selects others" true
    (Openarc_core.Vconfig.selects c "k1");
  Alcotest.(check bool) "excludes listed" false
    (Openarc_core.Vconfig.selects c "k0")

let test_demotion_pass () =
  let src =
    "int main() { int n = 8; float a[n]; float b[n];\nfor (int i = 0; i < \
     n; i++) { a[i] = 1.0; }\n#pragma acc data copyin(a) \
     create(b)\n{\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { \
     b[i] = a[i]; }\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) \
     { a[i] = b[i] * 2.0; }\n}\nreturn 0; }"
  in
  let out =
    Openarc_core.Demotion.to_string (Openarc_core.Compiler.compile src)
      "main_kernel0"
  in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  (* Listing 2 shape: demoted clauses + async on the target, wait after,
     the enclosing data directive and the other compute region stripped. *)
  Alcotest.(check bool) "copy(b) demoted" true (contains "copy(b)");
  Alcotest.(check bool) "copyin(a) demoted" true (contains "copyin(a)");
  Alcotest.(check bool) "async added" true (contains "async(1)");
  Alcotest.(check bool) "wait inserted" true (contains "#pragma acc wait(1)");
  Alcotest.(check bool) "data region stripped" false (contains "acc data");
  (* exactly one compute directive remains *)
  let count_sub needle =
    let n = String.length needle and m = String.length out in
    let rec go i acc =
      if i + n > m then acc
      else if String.sub out i n = needle then go (i + 1) (acc + 1)
      else go (i + 1) acc
    in
    go 0 0
  in
  Alcotest.(check int) "one kernels directive left" 1
    (count_sub "acc kernels")

(* [sequential_ops] is Figure 3's normalization baseline: counted on the
   verification run itself, it must equal an independent sequential
   reference run's op count for every suite program and build, with and
   without the symbolic tier. *)
let test_sequential_ops_pinned () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      List.iter
        (fun (build, src, opts) ->
          let prog = Minic.Parser.parse_string ~file:b.name src in
          let expected = (Accrt.Eval.run_reference prog).Accrt.Eval.ops in
          List.iter
            (fun symbolic ->
              let v = Openarc_core.Kernel_verify.verify ~opts ~symbolic prog in
              Alcotest.(check int)
                (Fmt.str "%s/%s%s: sequential ops" b.name build
                   (if symbolic then " --symbolic" else ""))
                expected v.Openarc_core.Kernel_verify.sequential_ops)
            [ false; true ])
        [ ("source", b.source, Codegen.Options.default);
          ("optimized", b.optimized, Codegen.Options.default);
          ("fault", b.source, Codegen.Options.fault_injection) ])
    Suite.Registry.all

let tests =
  [ Alcotest.test_case "correct program passes" `Quick
      test_correct_program_passes;
    Alcotest.test_case "fault injection detection" `Quick
      test_fault_injection_detection;
    Alcotest.test_case "occurrences counted" `Quick test_occurrences_counted;
    Alcotest.test_case "kernel selection + complement" `Quick
      test_kernel_selection;
    Alcotest.test_case "error margin" `Quick test_error_margin;
    Alcotest.test_case "minValueToCheck" `Quick test_min_value_to_check;
    Alcotest.test_case "value bounds" `Quick test_value_bounds;
    Alcotest.test_case "debug assertion API" `Quick test_debug_assertion;
    Alcotest.test_case "no error propagation" `Quick
      test_no_error_propagation;
    Alcotest.test_case "metrics breakdown" `Quick test_metrics_breakdown;
    Alcotest.test_case "vconfig parsing" `Quick test_vconfig_parsing;
    Alcotest.test_case "demotion pass (Listing 2)" `Quick test_demotion_pass;
    Alcotest.test_case "sequential ops = reference ops" `Quick
      test_sequential_ops_pinned ]
