(* Multi-dimensional arrays: declaration, row-major layout, per-dimension
   bounds, kernels over 2-D data, pointers to 2-D arrays, pretty-printer
   round trips, and error cases. *)

open Minic

let run src =
  Accrt.Interp.run ~coherence:false (Openarc_core.Compiler.compile src)
let reference src = Accrt.Eval.run_reference (Parser.parse_string src)

let out_f o name = Accrt.Value.to_float (Accrt.Interp.host_scalar o name)

let ref_f ctx name =
  Accrt.Value.to_float (Accrt.Value.get_scalar ctx.Accrt.Eval.env name)

let test_basic_2d () =
  let src =
    "int main() { int n = 4; int m = 3; float a[n][m];\nfor (int i = 0; i \
     < n; i++) { for (int j = 0; j < m; j++) { a[i][j] = float(i) * 10.0 + \
     float(j); } }\nfloat x = a[2][1];\nfloat y = a[3][2];\nreturn 0; }"
  in
  let ctx = reference src in
  Alcotest.(check (float 0.)) "a[2][1]" 21.0 (ref_f ctx "x");
  Alcotest.(check (float 0.)) "a[3][2]" 32.0 (ref_f ctx "y");
  (* row-major layout in the flattened buffer *)
  let buf = Accrt.Value.array_buf ctx.Accrt.Eval.env "a" in
  Alcotest.(check int) "flattened size" 12 (Gpusim.Buf.length buf);
  Alcotest.(check (float 0.)) "element (2,1) at 2*3+1" 21.0
    (Gpusim.Buf.get_float buf 7)

let test_3d () =
  let src =
    "int main() { float t[2][3][4];\nt[1][2][3] = 42.0;\nfloat v = \
     t[1][2][3];\nfloat z = t[0][0][0];\nreturn 0; }"
  in
  let ctx = reference src in
  Alcotest.(check (float 0.)) "3-D write/read" 42.0 (ref_f ctx "v");
  Alcotest.(check (float 0.)) "untouched" 0.0 (ref_f ctx "z")

let test_bounds_per_dimension () =
  let expect_err src =
    try
      ignore (reference src);
      Alcotest.fail "expected runtime error"
    with Accrt.Value.Runtime_error _ -> ()
  in
  (* the row index is within the flat size but outside its dimension *)
  expect_err "int main() { float a[3][4]; a[3][0] = 1.0; return 0; }";
  expect_err "int main() { float a[3][4]; a[0][4] = 1.0; return 0; }";
  expect_err "int main() { float a[3][4]; float x = a[0][0 - 1]; return 0; }";
  (* wrong subscript counts *)
  expect_err "int main() { float a[3][4]; a[0][0][0] = 1.0; return 0; }"

let test_partial_indexing_rejected () =
  try
    ignore
      (reference "int main() { float a[3][4]; float x = a[1] + 1.0; return \
                  0; }");
    Alcotest.fail "expected error"
  with Accrt.Value.Runtime_error _ | Loc.Error _ -> ()

let test_kernel_over_2d () =
  let src =
    "int main() { int n = 8; int m = 8; float grid[n][m]; float out[n][m]; \
     float s = 0.0;\nfor (int i = 0; i < n; i++) { for (int j = 0; j < m; \
     j++) { grid[i][j] = float((i * m + j) % 5); out[i][j] = 0.0; } \
     }\n#pragma acc data copyin(grid) copyout(out)\n{\n#pragma acc kernels \
     loop gang worker\nfor (int i = 1; i < n - 1; i++) {\nfor (int j = 1; \
     j < m - 1; j++) {\nout[i][j] = 0.25 * (grid[i - 1][j] + grid[i + \
     1][j] + grid[i][j - 1] + grid[i][j + 1]);\n}\n}\n}\n#pragma acc \
     parallel loop reduction(+:s)\nfor (int i = 0; i < n; i++) {\nfor (int \
     j = 0; j < m; j++) { s = s + out[i][j]; }\n}\nreturn 0; }"
  in
  let o = run src in
  let r = reference src in
  Alcotest.(check (float 1e-9)) "2-D stencil on GPU matches reference"
    (ref_f r "s") (out_f o "s")

let test_pointer_to_2d () =
  let src =
    "int main() { float a[2][3]; float b[2][3]; float *p;\nfor (int i = 0; \
     i < 2; i++) { for (int j = 0; j < 3; j++) { a[i][j] = 1.0; b[i][j] = \
     2.0; } }\np = a;\np[1][2] = 9.0;\np = b;\np[0][0] = 7.0;\nfloat x = \
     a[1][2];\nfloat y = b[0][0];\nreturn 0; }"
  in
  let ctx = reference src in
  Alcotest.(check (float 0.)) "through p to a" 9.0 (ref_f ctx "x");
  Alcotest.(check (float 0.)) "through p to b" 7.0 (ref_f ctx "y")

let test_roundtrip_and_typing () =
  let src =
    "int main() { int n = 2; float a[n][4]; int c[2][2][2]; a[0][0] = 1.0; \
     c[1][1][1] = 3; return 0; }"
  in
  let p1 = Parser.parse_string src in
  ignore (Typecheck.check p1);
  let p2 = Parser.parse_string (Pretty.program_to_string p1) in
  Alcotest.(check bool) "pretty round-trip" true (Ast.equal_program p1 p2);
  (* typechecker rejects scalar use of a row *)
  try
    ignore
      (Typecheck.check
         (Parser.parse_string
            "int main() { float a[2][2]; float x = 0.0; x = a[0]; return 0; \
             }"));
    Alcotest.fail "expected type error"
  with Loc.Error _ -> ()

let test_coherence_on_2d () =
  (* coherence tracks the whole flattened buffer of a 2-D array *)
  let src =
    "int main() { int n = 6; float a[n][n];\nfor (int i = 0; i < n; i++) { \
     for (int j = 0; j < n; j++) { a[i][j] = 1.0; } }\nfor (int k = 0; k < \
     3; k++) {\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { \
     for (int j = 0; j < n; j++) { a[i][j] = a[i][j] + 1.0; } }\n}\nfloat \
     cs = a[0][0];\nreturn 0; }"
  in
  let o =
    Accrt.Interp.run ~coherence:true
      (Codegen.Checkgen.instrument (Openarc_core.Compiler.compile src))
  in
  Alcotest.(check (float 0.)) "value" 4.0 (out_f o "cs");
  Alcotest.(check bool) "redundant copies of the 2-D buffer reported" true
    (List.exists
       (fun r -> r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant)
       (Accrt.Interp.reports o))

let tests =
  [ Alcotest.test_case "basic 2-D" `Quick test_basic_2d;
    Alcotest.test_case "3-D" `Quick test_3d;
    Alcotest.test_case "per-dimension bounds" `Quick
      test_bounds_per_dimension;
    Alcotest.test_case "partial indexing rejected" `Quick
      test_partial_indexing_rejected;
    Alcotest.test_case "kernel over 2-D data" `Quick test_kernel_over_2d;
    Alcotest.test_case "pointer to 2-D array" `Quick test_pointer_to_2d;
    Alcotest.test_case "round trip and typing" `Quick
      test_roundtrip_and_typing;
    Alcotest.test_case "coherence on 2-D buffers" `Quick
      test_coherence_on_2d ]
