(* Inlining of directive-containing functions: correctness of the
   transformation, reference semantics for array parameters, alpha
   renaming of clauses, verification and optimization through calls,
   and rejection of non-inlinable shapes. *)

open Minic

let run src =
  Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached
    (Openarc_core.Compiler.compile src)
let reference src = Accrt.Eval.run_reference (Parser.parse_string src)

let out_f o name = Accrt.Value.to_float (Accrt.Interp.host_scalar o name)

let ref_f ctx name =
  Accrt.Value.to_float (Accrt.Value.get_scalar ctx.Accrt.Eval.env name)

let saxpy_prog =
  "void saxpy(float y[], float x[], int n, float alpha) {\n\
   float t;\n#pragma acc kernels loop private(t)\nfor (int i = 0; i < n; \
   i++) { t = alpha * x[i]; y[i] = y[i] + t; }\n}\n\
   float dot(float x[], float y[], int n) {\nfloat s = 0.0;\n#pragma acc \
   kernels loop reduction(+:s)\nfor (int i = 0; i < n; i++) { s = s + x[i] \
   * y[i]; }\nreturn s;\n}\n\
   int main() { int n = 128; float x[n]; float y[n]; float d = 0.0;\nfor \
   (int i = 0; i < n; i++) { x[i] = float(i) * 0.01; y[i] = 1.0; \
   }\nsaxpy(y, x, n, 2.0);\nsaxpy(y, x, n, 0.5);\nd = dot(x, y, \
   n);\nreturn 0; }"

let test_inlined_execution () =
  let o = run saxpy_prog in
  let r = reference saxpy_prog in
  Alcotest.(check (float 1e-9)) "dot through inlined kernels"
    (ref_f r "d") (out_f o "d")

let test_kernels_outlined_per_site () =
  let tp = Openarc_core.Compiler.compile saxpy_prog in
  (* two saxpy call sites + one dot call = 3 kernels *)
  Alcotest.(check int) "three kernels" 3
    (Array.length tp.Codegen.Tprog.kernels);
  (* the private clause survived renaming: each saxpy kernel has one
     private scalar *)
  let privates =
    Array.to_list tp.Codegen.Tprog.kernels
    |> List.filter (fun k -> Codegen.Tprog.(k.k_has_private_data))
  in
  Alcotest.(check int) "two private kernels" 2 (List.length privates)

let test_verification_through_calls () =
  let v =
    Openarc_core.Kernel_verify.verify ~opts:Codegen.Options.fault_injection
      (Parser.parse_string
         (Openarc_core.Faults.strip_parallelism_clauses
            (Parser.parse_string saxpy_prog)
         |> Pretty.program_to_string))
  in
  (* the two broken-privatization kernels are latent; the broken reduction
     is active and detected *)
  let bad = Openarc_core.Kernel_verify.detected_errors v in
  Alcotest.(check int) "one active error" 1 (List.length bad);
  Alcotest.(check int) "three kernels verified" 3
    (List.length v.Openarc_core.Kernel_verify.reports)

let test_session_through_calls () =
  let r =
    Openarc_core.Session.optimize ~outputs:[ "d" ]
      (Parser.parse_string saxpy_prog)
  in
  Alcotest.(check bool) "converged" true r.Openarc_core.Session.converged;
  (* the optimized program still computes the right value *)
  let env = Typecheck.check r.Openarc_core.Session.final in
  let tp = Codegen.Translate.translate env r.Openarc_core.Session.final in
  let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
  let ref_ctx = reference saxpy_prog in
  Alcotest.(check (float 1e-6)) "value preserved" (ref_f ref_ctx "d")
    (out_f o "d")

let test_nested_inlining () =
  let src =
    "void inner(float a[], int n) {\n#pragma acc kernels loop\nfor (int i \
     = 0; i < n; i++) { a[i] = a[i] + 1.0; }\n}\n\
     void outer(float a[], int n) {\ninner(a, n);\ninner(a, n);\n}\n\
     int main() { int n = 32; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 0.0; }\nouter(a, n);\nfloat cs = a[0];\nreturn 0; }"
  in
  Alcotest.(check (float 0.)) "two levels deep" 2.0 (out_f (run src) "cs")

let test_scalar_arg_by_value () =
  (* scalar parameters are copied: callee writes don't leak out *)
  let src =
    "void bump(float a[], int n, float v) {\nv = v + 100.0;\n#pragma acc \
     kernels loop\nfor (int i = 0; i < n; i++) { a[i] = v; }\n}\n\
     int main() { int n = 8; float a[n]; float v = 1.0;\nfor (int i = 0; i \
     < n; i++) { a[i] = 0.0; }\nbump(a, n, v);\nfloat leak = v;\nfloat got \
     = a[0];\nreturn 0; }"
  in
  let o = run src in
  Alcotest.(check (float 0.)) "caller var untouched" 1.0 (out_f o "leak");
  Alcotest.(check (float 0.)) "callee saw its copy" 101.0 (out_f o "got")

(* Each shape the inliner cannot expand is a located front-end error. *)
let test_rejects_expression_calls () =
  let rejected what ~at src =
    match Openarc_core.Compiler.compile ~file:"t.c" src with
    | _ -> Alcotest.failf "%s: expected a located error" what
    | exception Minic.Loc.Error (loc, _) ->
        Alcotest.(check string) (what ^ ": location") at
          (Minic.Loc.to_string loc)
  in
  rejected "expression-position call" ~at:"t.c:6:26"
    "float f(float a[], int n) {\n#pragma acc kernels loop\nfor (int i = \
     0; i < n; i++) { a[i] = 1.0; }\nreturn a[0];\n}\n\
     int main() { float a[4]; float x = f(a, 4) + 1.0; return 0; }";
  rejected "early return" ~at:"t.c:7:41"
    "float g(float a[], int n) {\nif (n == 0) { return 0.0; }\n#pragma acc \
     kernels loop\nfor (int i = 0; i < n; i++) { a[i] = 1.0; }\nreturn \
     a[0];\n}\nint main() { float a[4]; float x = 0.0; x = g(a, 4); return \
     0; }";
  (* recursion is reported at the function that calls itself *)
  rejected "recursion" ~at:"t.c:2:1"
    "int n = 4;\nvoid r(float a[4], int d) {\n#pragma acc kernels loop\nfor \
     (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }\nif (d > 0) { r(a, d \
     - 1); }\n}\nint main() { float a[4]; r(a, 2); return 0; }"

let test_plain_functions_untouched () =
  (* functions without directives keep normal call semantics *)
  let src =
    "float sq(float x) { return x * x; }\nint main() { float y = sq(3.0); \
     return 0; }"
  in
  let prog = Parser.parse_string src in
  Alcotest.(check bool) "no expansion needed" false
    (Codegen.Inline.needs_expansion prog);
  Alcotest.(check (float 0.)) "still works" 9.0 (out_f (run src) "y")

let tests =
  [ Alcotest.test_case "inlined execution matches reference" `Quick
      test_inlined_execution;
    Alcotest.test_case "kernels outlined per call site" `Quick
      test_kernels_outlined_per_site;
    Alcotest.test_case "verification through calls" `Quick
      test_verification_through_calls;
    Alcotest.test_case "optimization session through calls" `Quick
      test_session_through_calls;
    Alcotest.test_case "nested inlining" `Quick test_nested_inlining;
    Alcotest.test_case "scalar args by value" `Quick test_scalar_arg_by_value;
    Alcotest.test_case "rejects non-inlinable shapes" `Quick
      test_rejects_expression_calls;
    Alcotest.test_case "plain functions untouched" `Quick
      test_plain_functions_untouched ]
