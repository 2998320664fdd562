(* OpenACC directive validation: clause legality, nesting, data-clause
   sanity. *)

open Minic

let ok src = Acc.Validate.check_program (Parser.parse_string src)

let bad name src =
  try
    ok src;
    Alcotest.failf "%s: expected validation error" name
  with Acc.Validate.Invalid _ -> ()

let kernel_on body = "int main() { float a[4]; float s; float t;\n" ^ body
                     ^ "\nreturn 0; }"

let test_legal () =
  ok (kernel_on
        "#pragma acc kernels loop gang worker private(t)\nfor (int i = 0; i \
         < 4; i++) { a[i] = 0.0; }");
  ok (kernel_on
        "#pragma acc data copyin(a) if(1)\n{\n#pragma acc parallel loop \
         reduction(+:s)\nfor (int i = 0; i < 4; i++) { s = s + a[i]; }\n}");
  ok (kernel_on "#pragma acc update host(a) async(1)\n#pragma acc wait(1)");
  ok (kernel_on
        "#pragma acc kernels\n{\nfor (int i = 0; i < 4; i++) { a[i] = 1.0; \
         }\n#pragma acc loop gang\nfor (int i = 0; i < 4; i++) { a[i] = \
         2.0; }\n}")

let test_illegal_clauses () =
  bad "gang on data"
    (kernel_on "#pragma acc data gang\n{ }");
  bad "copy on update"
    (kernel_on "#pragma acc update copy(a)");
  bad "private on update"
    (kernel_on "#pragma acc update host(a) private(t)");
  bad "host on kernels"
    (kernel_on
       "#pragma acc kernels loop host(a)\nfor (int i = 0; i < 4; i++) { \
        a[i] = 0.0; }")

let test_structure () =
  bad "nested compute"
    (kernel_on
       "#pragma acc parallel\n{\n#pragma acc kernels loop\nfor (int i = 0; \
        i < 4; i++) { a[i] = 0.0; }\n}");
  bad "orphaned loop"
    (kernel_on "#pragma acc loop gang\nfor (int i = 0; i < 4; i++) { }");
  bad "update inside compute"
    (kernel_on
       "#pragma acc kernels\n{\n#pragma acc update host(a)\n}");
  bad "loop on non-for"
    (kernel_on "#pragma acc kernels loop\na[0] = 1.0;");
  bad "empty update" (kernel_on "#pragma acc update async(1)")

let test_data_sanity () =
  bad "duplicate data var"
    (kernel_on "#pragma acc data copyin(a) copyout(a)\n{ }");
  bad "private and data"
    (kernel_on
       "#pragma acc kernels loop copyin(s) private(s)\nfor (int i = 0; i < \
        4; i++) { a[i] = 0.0; }")

let test_duplicate_clauses () =
  bad "two if clauses"
    (kernel_on "#pragma acc data copyin(a) if(1) if(0)\n{ }");
  bad "two async clauses"
    (kernel_on "#pragma acc update host(a) async(1) async(2)");
  bad "two gang clauses"
    (kernel_on
       "#pragma acc kernels loop gang gang\nfor (int i = 0; i < 4; i++) { \
        a[i] = 0.0; }");
  bad "two collapse clauses"
    (kernel_on
       "#pragma acc kernels loop collapse(2) collapse(2)\nfor (int i = 0; \
        i < 4; i++) { for (int j = 0; j < 4; j++) { a[i] = 0.0; } }");
  bad "seq with independent"
    (kernel_on
       "#pragma acc kernels loop seq independent\nfor (int i = 0; i < 4; \
        i++) { a[i] = 0.0; }");
  bad "collapse(0)"
    (kernel_on
       "#pragma acc kernels loop collapse(0)\nfor (int i = 0; i < 4; i++) \
        { a[i] = 0.0; }");
  (* one of each remains fine *)
  ok (kernel_on
        "#pragma acc kernels loop gang worker collapse(2)\nfor (int i = 0; \
         i < 4; i++) { for (int j = 0; j < 4; j++) { a[i] = 0.0; } }")

let test_nesting_edges () =
  bad "data inside compute"
    (kernel_on
       "#pragma acc kernels\n{\n#pragma acc data copyin(a)\n{ }\n}");
  bad "compute inside compute via loop body"
    (kernel_on
       "#pragma acc kernels loop\nfor (int i = 0; i < 4; i++) {\n#pragma \
        acc kernels loop\nfor (int j = 0; j < 4; j++) { a[j] = 0.0; }\n}");
  bad "wait inside compute"
    (kernel_on "#pragma acc kernels\n{\n#pragma acc wait(1)\n}");
  (* data regions nest among themselves *)
  ok (kernel_on
        "#pragma acc data copyin(a)\n{\n#pragma acc data copyout(a)\n{ \
         }\n}")

let test_subarray_sanity () =
  bad "negative subarray base"
    (kernel_on "#pragma acc data copyin(a[0-1:2])\n{ }");
  bad "zero-length subarray"
    (kernel_on "#pragma acc data copyin(a[0:0])\n{ }");
  bad "negative-length update subarray"
    (kernel_on "#pragma acc update host(a[0:0-2])");
  bad "private and reduction"
    (kernel_on
       "#pragma acc kernels loop private(s) reduction(+:s)\nfor (int i = \
        0; i < 4; i++) { s = s + a[i]; }");
  ok (kernel_on "#pragma acc data copyin(a[1:3])\n{ }")

(* A constant subarray must end inside its array's constant extent, in
   the scope where the clause sits; other extents are checked at run time. *)
let test_subarray_extent () =
  let message src =
    match ok src with
    | () -> Alcotest.fail "expected validation error"
    | exception Acc.Validate.Invalid (loc, m) ->
        Fmt.str "%d:%d: %s" loc.Loc.line loc.Loc.col m
  in
  Alcotest.(check string) "copy past the end, located"
    "2:1: subarray 'a[0:100]' runs past the end of 'a' (4 element(s))"
    (message (kernel_on "#pragma acc data copy(a[0:100])\n{ }"));
  bad "update past the end" (kernel_on "#pragma acc update host(a[1:9])");
  bad "copyin on a kernels construct"
    (kernel_on
       "#pragma acc kernels loop copyin(a[2:3])\nfor (int i = 0; i < 4; i++) \
        { a[i] = 0.0; }");
  bad "2-D extent is the element count"
    "int main() { float m[2][3];\n#pragma acc data copy(m[0:7])\n{ }\n\
     return 0; }";
  bad "global array"
    "float g[4];\nint main() {\n#pragma acc data copy(g[0:5])\n{ }\n\
     return 0; }";
  ok (kernel_on "#pragma acc data copy(a[0:4])\n{ }");
  ok
    "int main() { float m[2][3];\n#pragma acc data copy(m[0:6])\n{ }\n\
     return 0; }";
  (* run-time extents and lengths are the runtime's to check *)
  ok
    "int main() { int n = 100; float a[n];\n#pragma acc data \
     copy(a[0:200])\n{ }\nreturn 0; }";
  ok (kernel_on "int n = 100;\n#pragma acc data copy(a[0:n])\n{ }");
  (* the innermost declaration in scope decides *)
  ok
    "int main() { float a[4];\n{ float a[100];\n#pragma acc data \
     copy(a[0:100])\n{ }\n}\nreturn 0; }";
  bad "inner declaration ended with its block"
    "int main() { float a[4];\n{ float a[100]; a[0] = 1.0; }\n#pragma acc \
     data copy(a[0:100])\n{ }\nreturn 0; }";
  ok
    "int main() { float b[100]; float *a = b;\n#pragma acc data \
     copy(a[0:100])\n{ }\nreturn 0; }"

let tests =
  [ Alcotest.test_case "legal programs" `Quick test_legal;
    Alcotest.test_case "illegal clauses" `Quick test_illegal_clauses;
    Alcotest.test_case "structural rules" `Quick test_structure;
    Alcotest.test_case "data-clause sanity" `Quick test_data_sanity;
    Alcotest.test_case "duplicate clauses" `Quick test_duplicate_clauses;
    Alcotest.test_case "nesting edge cases" `Quick test_nesting_edges;
    Alcotest.test_case "subarray sanity" `Quick test_subarray_sanity;
    Alcotest.test_case "subarray extent" `Quick test_subarray_extent ]
