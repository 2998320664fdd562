(* Reference (sequential) interpreter semantics. *)

open Minic

let run src = Accrt.Eval.run_reference (Parser.parse_string src)

let scalar ctx name =
  Accrt.Value.to_float (Accrt.Value.get_scalar ctx.Accrt.Eval.env name)

let int_scalar ctx name =
  Accrt.Value.to_int (Accrt.Value.get_scalar ctx.Accrt.Eval.env name)

let arr ctx name i =
  Gpusim.Buf.get_float (Accrt.Value.array_buf ctx.Accrt.Eval.env name) i

let check_scalar src name expected =
  let ctx = run ("int main() { " ^ src ^ " return 0; }") in
  Alcotest.(check (float 1e-12)) name expected (scalar ctx name)

let test_arithmetic () =
  check_scalar "float x = 1.5 + 2.0 * 3.0;" "x" 7.5;
  check_scalar "int x = 7 / 2;" "x" 3.0;
  check_scalar "int x = 7 % 3;" "x" 1.0;
  check_scalar "float x = float(7) / 2.0;" "x" 3.5;
  check_scalar "int x = (3 < 4) + (4 <= 4) + (5 > 6);" "x" 2.0;
  check_scalar "int x = 1 == 1 ? 10 : 20;" "x" 10.0;
  check_scalar "float x = 0.0 - 2.5;" "x" (-2.5);
  check_scalar "int x = !0 + !5;" "x" 1.0

let test_short_circuit () =
  (* the right operand of && must not be evaluated when the left is false:
     an out-of-bounds access would raise otherwise *)
  check_scalar "float a[2]; int i = 5; int ok = (i < 2) && (a[i] > 0.0);"
    "ok" 0.0;
  check_scalar "float a[2]; int i = 5; int ok = (i >= 2) || (a[i] > 0.0);"
    "ok" 1.0

let test_control_flow () =
  check_scalar
    "int s = 0; for (int i = 0; i < 5; i++) { if (i == 2) { continue; } if \
     (i == 4) { break; } s = s + i; }"
    "s" 4.0 (* 0 + 1 + 3 *);
  check_scalar "int i = 0; int n = 0; while (i < 10) { i = i + 3; n++; }"
    "n" 4.0;
  check_scalar
    "int x = 0; { int y = 5; x = y; }" "x" 5.0

let test_arrays_and_pointers () =
  let ctx =
    run
      "int main() { float a[4]; float b[4]; float *p; for (int i = 0; i < \
       4; i++) { a[i] = float(i); b[i] = 10.0; } p = a; p[1] = 42.0; p = b; \
       p[1] = 7.0; return 0; }"
  in
  Alcotest.(check (float 0.)) "write via p to a" 42.0 (arr ctx "a" 1);
  Alcotest.(check (float 0.)) "write via p to b" 7.0 (arr ctx "b" 1);
  Alcotest.(check string) "root tracks rebinding" "b"
    (Accrt.Value.root_of ctx.Accrt.Eval.env "p")

let test_functions () =
  let ctx =
    run
      "float square(float x) { return x * x; }\n\
       float sum(float a[], int n) { float s = 0.0; for (int i = 0; i < n; \
       i++) { s = s + a[i]; } return s; }\n\
       void fill(float a[], int n, float v) { for (int i = 0; i < n; i++) \
       { a[i] = v; } }\n\
       int main() { float a[3]; fill(a, 3, 2.0); float t = sum(a, 3); \
       float q = square(t); return 0; }"
  in
  Alcotest.(check (float 0.)) "by-ref fill + sum" 6.0 (scalar ctx "t");
  Alcotest.(check (float 0.)) "nested call" 36.0 (scalar ctx "q")

let test_builtins () =
  check_scalar "float x = sqrt(16.0);" "x" 4.0;
  check_scalar "float x = fabs(0.0 - 3.5);" "x" 3.5;
  check_scalar "float x = pow(2.0, 10.0);" "x" 1024.0;
  check_scalar "float x = min(3.0, 1.0) + max(3.0, 1.0);" "x" 4.0;
  check_scalar "int x = abs(0 - 7);" "x" 7.0;
  check_scalar "float x = floor(2.7) + ceil(2.2);" "x" 5.0;
  check_scalar "float x = exp(0.0) + log(1.0);" "x" 1.0

let test_globals () =
  let ctx =
    run
      "float g[4];\nint counter = 10;\nint main() { g[0] = 3.0; counter = \
       counter + 1; return 0; }"
  in
  Alcotest.(check (float 0.)) "global array" 3.0 (arr ctx "g" 0);
  Alcotest.(check int) "global scalar" 11 (int_scalar ctx "counter")

let test_directives_transparent () =
  (* Sequential reference execution ignores directives but runs bodies. *)
  let ctx =
    run
      "int main() { float a[4]; float s = 0.0;\n#pragma acc data \
       copyin(a)\n{\n#pragma acc kernels loop reduction(+:s)\nfor (int i = \
       0; i < 4; i++) { a[i] = 1.0; s = s + a[i]; }\n}\n#pragma acc update \
       host(a)\nreturn 0; }"
  in
  Alcotest.(check (float 0.)) "body ran" 4.0 (scalar ctx "s")

let test_runtime_errors () =
  let expect_err src =
    try
      ignore (run src);
      Alcotest.fail "expected runtime error"
    with Accrt.Value.Runtime_error _ -> ()
  in
  expect_err "int main() { float a[2]; a[5] = 1.0; return 0; }";
  expect_err "int main() { float a[2]; a[0 - 1] = 1.0; return 0; }";
  expect_err "int main() { int x = 1 / 0; return 0; }";
  expect_err "int main() { float a[]; a[0] = 1.0; return 0; }"

let test_op_counting () =
  let c1 = run "int main() { return 0; }" in
  let c2 =
    run "int main() { int s = 0; for (int i = 0; i < 100; i++) { s = s + i; \
         } return 0; }"
  in
  Alcotest.(check bool) "ops grow with work" true
    (c2.Accrt.Eval.ops > c1.Accrt.Eval.ops + 300)

(* Pin the Int/Flt promotion rules of [Eval.arith] by constructor, not
   just by value: arithmetic keeps ints integral and promotes on any
   float operand; comparison and logical results are always *Int* 0/1
   (and, with the allocation-free fast path, physically the two shared
   scalars — so neither engine ever boxes a boolean). *)
let test_promotion_rules () =
  let open Minic.Ast in
  let a = Accrt.Eval.arith in
  let check name expected got =
    Alcotest.(check bool) name true (expected = got)
  in
  check "int + int stays int" (Accrt.Value.Int 7)
    (a Add (Accrt.Value.Int 3) (Accrt.Value.Int 4));
  check "int + float promotes" (Accrt.Value.Flt 7.5)
    (a Add (Accrt.Value.Int 3) (Accrt.Value.Flt 4.5));
  check "float * int promotes" (Accrt.Value.Flt 8.0)
    (a Mul (Accrt.Value.Flt 2.0) (Accrt.Value.Int 4));
  check "int / int truncates" (Accrt.Value.Int 3)
    (a Div (Accrt.Value.Int 7) (Accrt.Value.Int 2));
  check "float / int is float division" (Accrt.Value.Flt 3.5)
    (a Div (Accrt.Value.Flt 7.0) (Accrt.Value.Int 2));
  check "int < int is Int 1" (Accrt.Value.Int 1)
    (a Lt (Accrt.Value.Int 3) (Accrt.Value.Int 4));
  check "float < float is Int 1" (Accrt.Value.Int 1)
    (a Lt (Accrt.Value.Flt 3.0) (Accrt.Value.Flt 4.0));
  check "mixed == compares as float, yields Int" (Accrt.Value.Int 1)
    (a Eq (Accrt.Value.Int 3) (Accrt.Value.Flt 3.0));
  check "false comparison is Int 0" (Accrt.Value.Int 0)
    (a Gt (Accrt.Value.Flt 1.0) (Accrt.Value.Flt 2.0));
  check "logical and on floats is Int" (Accrt.Value.Int 1)
    (a Land (Accrt.Value.Flt 0.5) (Accrt.Value.Flt 2.0));
  check "logical or on ints is Int" (Accrt.Value.Int 0)
    (a Lor (Accrt.Value.Int 0) (Accrt.Value.Int 0));
  (* the fast path: boolean results are the two shared scalars *)
  Alcotest.(check bool) "true results share one scalar" true
    (a Lt (Accrt.Value.Int 3) (Accrt.Value.Int 4)
    == a Ge (Accrt.Value.Flt 4.0) (Accrt.Value.Flt 3.0));
  Alcotest.(check bool) "false results share one scalar" true
    (a Lt (Accrt.Value.Int 4) (Accrt.Value.Int 3)
    == a Ge (Accrt.Value.Flt 3.0) (Accrt.Value.Flt 4.0))

(* Environments: one binding table, the innermost scope wins, globals
   come last, scopes unbind what they bound, and a call hides the
   caller's scopes. *)
let int_binding n = Accrt.Value.Scalar { v = Accrt.Value.Int n }

let bound_int env name =
  match Accrt.Value.lookup env name with
  | Some (Accrt.Value.Scalar c) -> Some (Accrt.Value.to_int c.v)
  | Some (Accrt.Value.Array _) | None -> None

let check_bound env what name expected =
  Alcotest.(check (option int)) what expected (bound_int env name)

let test_frame_lookup () =
  let env = Accrt.Value.create () in
  Accrt.Value.declare_global env "g" (int_binding 1);
  Accrt.Value.declare_global env "x" (int_binding 2);
  Accrt.Value.declare env "x" (int_binding 3);
  Accrt.Value.scoped env (fun () ->
      Accrt.Value.declare env "x" (int_binding 4);
      check_bound env "innermost scope shadows" "x" (Some 4);
      check_bound env "globals are the fallback" "g" (Some 1));
  check_bound env "the shadow goes with its scope" "x" (Some 3);
  check_bound env "absent name" "y" None;
  Alcotest.check_raises "unbound name"
    (Accrt.Value.Runtime_error "unbound variable 'y'") (fun () ->
      ignore (Accrt.Value.lookup_exn env "y"))

(* How many bindings [f] of [map_bindings] is given for [name]. *)
let bindings_of env name =
  let n = ref 0 in
  ignore
    (Accrt.Value.map_bindings
       (fun m b ->
         if String.equal m name then incr n;
         b)
       env);
  !n

let test_binding_table () =
  let env = Accrt.Value.create () in
  Accrt.Value.declare env "v" (int_binding 0);
  Accrt.Value.scoped env (fun () ->
      List.iter
        (fun n -> Accrt.Value.declare env "v" (int_binding n))
        [ 1; 2; 3 ];
      check_bound env "the latest redeclaration wins" "v" (Some 3);
      Alcotest.(check int) "redeclaring in one scope keeps one binding" 1
        (bindings_of env "v"));
  check_bound env "closing the scope drops every redeclaration" "v"
    (Some 0);
  (* the scope of a large generated [main]: the table grows many times *)
  let names = List.init 1000 (fun i -> Fmt.str "v%d" i) in
  Accrt.Value.scoped env (fun () ->
      List.iteri (fun i n -> Accrt.Value.declare env n (int_binding i)) names;
      List.iteri
        (fun i n ->
          match bound_int env n with
          | Some k when k = i -> ()
          | _ -> Alcotest.failf "%s lost after the table grew" n)
        names;
      check_bound env "the outer v survives growth" "v" (Some 0));
  List.iter
    (fun n ->
      if bound_int env n <> None then
        Alcotest.failf "%s still bound after its scope closed" n)
    names

let test_scopes_unbind () =
  let env = Accrt.Value.create () in
  Accrt.Value.declare env "i" (int_binding 0);
  for round = 1 to 3 do
    Accrt.Value.scoped env (fun () ->
        List.iter
          (fun n -> Accrt.Value.declare env n (int_binding round))
          [ "i"; "j"; "tmp" ];
        Accrt.Value.scoped env (fun () ->
            Accrt.Value.declare env "inner" (int_binding round)))
  done;
  (try
     Accrt.Value.scoped env (fun () ->
         Accrt.Value.declare env "i" (int_binding 9);
         Accrt.Value.scoped env (fun () ->
             Accrt.Value.declare env "inner" (int_binding 9);
             failwith "leave by an exception"))
   with Failure _ -> ());
  check_bound env "scopes unbind, also on an exception" "i" (Some 0);
  List.iter
    (fun n -> check_bound env (n ^ ": no stale binding") n None)
    [ "j"; "tmp"; "inner" ];
  Accrt.Value.scoped env (fun () ->
      Accrt.Value.scoped env (fun () ->
          Accrt.Value.declare env "j" (int_binding 7);
          check_bound env "a new scope binds afresh" "j" (Some 7);
          List.iter
            (fun n -> check_bound env (n ^ ": still unbound") n None)
            [ "tmp"; "inner" ]));
  check_bound env "and unbinds again" "j" None

let test_call_visibility () =
  let env = Accrt.Value.create () in
  Accrt.Value.declare_global env "g" (int_binding 1);
  Accrt.Value.declare_global env "h" (int_binding 5);
  Accrt.Value.declare env "g" (int_binding 2);
  Accrt.Value.declare env "c" (int_binding 3);
  Accrt.Value.scoped env (fun () ->
      Accrt.Value.declare env "d" (int_binding 4);
      Accrt.Value.call env [ ("p", int_binding 7) ] (fun () ->
          check_bound env "the callee sees its parameter" "p" (Some 7);
          check_bound env "and the globals" "h" (Some 5);
          check_bound env "a caller local shadowing a global is hidden" "g"
            (Some 1);
          check_bound env "caller locals are hidden" "c" None;
          check_bound env "so are the caller's inner scopes" "d" None;
          Accrt.Value.scoped env (fun () ->
              Accrt.Value.declare env "c" (int_binding 8);
              check_bound env "the callee's own scopes are visible" "c"
                (Some 8);
              Accrt.Value.call env [ ("p", int_binding 9) ] (fun () ->
                  check_bound env "a recursive call sees its own parameter"
                    "p" (Some 9);
                  check_bound env "but not its caller's locals" "c" None));
          check_bound env "the parameter is back after the inner call" "p"
            (Some 7));
      check_bound env "the caller's locals are back" "d" (Some 4);
      check_bound env "the parameter is gone" "p" None;
      (try
         Accrt.Value.call env [] (fun () -> failwith "leave by an exception")
       with Failure _ -> ());
      check_bound env "a call left by an exception restores visibility" "c"
        (Some 3));
  check_bound env "the shadowing local is visible again" "g" (Some 2)

let test_map_bindings () =
  let env = Accrt.Value.create () in
  Accrt.Value.declare_global env "g" (int_binding 1);
  Accrt.Value.declare env "x" (int_binding 2);
  let copy =
    Accrt.Value.map_bindings
      (fun _ b ->
        match b with
        | Accrt.Value.Scalar c -> Accrt.Value.Scalar { v = c.v }
        | Accrt.Value.Array _ -> b)
      env
  in
  check_bound copy "the copy shows the locals" "x" (Some 2);
  check_bound copy "and the globals" "g" (Some 1);
  Accrt.Value.declare copy "y" (int_binding 3);
  Accrt.Value.declare env "z" (int_binding 4);
  check_bound env "the source misses the copy's declaration" "y" None;
  check_bound copy "the copy misses the source's declaration" "z" None;
  (Accrt.Value.scalar_cell copy "x").v <- Accrt.Value.Int 10;
  (Accrt.Value.scalar_cell env "g").v <- Accrt.Value.Int 20;
  check_bound env "the source misses the copy's write" "x" (Some 2);
  check_bound copy "the copy misses the source's write" "g" (Some 1);
  Accrt.Value.call copy [] (fun () ->
      check_bound copy "a call in the copy sees its globals" "g" (Some 1);
      check_bound copy "and not its locals" "x" None)

let tests =
  [ Alcotest.test_case "arithmetic" `Quick test_arithmetic;
    Alcotest.test_case "promotion rules" `Quick test_promotion_rules;
    Alcotest.test_case "short circuit" `Quick test_short_circuit;
    Alcotest.test_case "control flow" `Quick test_control_flow;
    Alcotest.test_case "arrays and pointers" `Quick test_arrays_and_pointers;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "builtins" `Quick test_builtins;
    Alcotest.test_case "globals" `Quick test_globals;
    Alcotest.test_case "directives transparent" `Quick
      test_directives_transparent;
    Alcotest.test_case "runtime errors" `Quick test_runtime_errors;
    Alcotest.test_case "op counting" `Quick test_op_counting;
    Alcotest.test_case "frame lookup" `Quick test_frame_lookup;
    Alcotest.test_case "binding table" `Quick test_binding_table;
    Alcotest.test_case "scopes unbind" `Quick test_scopes_unbind;
    Alcotest.test_case "calls hide the caller's scopes" `Quick
      test_call_visibility;
    Alcotest.test_case "map_bindings copies" `Quick test_map_bindings ]
