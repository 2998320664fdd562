(* Parser unit tests: expressions, statements, declarations, directives. *)

open Minic
open Minic.Ast

let expr = Parser.expr_of_string

let check_expr name src expected =
  Alcotest.(check bool) name true (equal_expr (expr src) expected)

let test_precedence () =
  check_expr "mul over add" "1 + 2 * 3"
    (Ebinop (Add, Eint 1, Ebinop (Mul, Eint 2, Eint 3)));
  check_expr "parens" "(1 + 2) * 3"
    (Ebinop (Mul, Ebinop (Add, Eint 1, Eint 2), Eint 3));
  check_expr "relational over logical" "a < b && c > d"
    (Ebinop (Land, Ebinop (Lt, Evar "a", Evar "b"),
             Ebinop (Gt, Evar "c", Evar "d")));
  check_expr "or over ternary" "a || b ? 1 : 2"
    (Econd (Ebinop (Lor, Evar "a", Evar "b"), Eint 1, Eint 2));
  check_expr "left assoc sub" "a - b - c"
    (Ebinop (Sub, Ebinop (Sub, Evar "a", Evar "b"), Evar "c"));
  check_expr "unary binds tight" "-a * b"
    (Ebinop (Mul, Eunop (Neg, Evar "a"), Evar "b"))

let test_postfix_and_calls () =
  check_expr "index" "a[i + 1]"
    (Eindex (Evar "a", Ebinop (Add, Evar "i", Eint 1)));
  check_expr "call" "sqrt(x)" (Ecall ("sqrt", [ Evar "x" ]));
  check_expr "call two args" "max(a, b)" (Ecall ("max", [ Evar "a"; Evar "b" ]));
  check_expr "conversion" "float(i)" (Ecall ("float", [ Evar "i" ]));
  check_expr "cast style" "(float) i" (Ecall ("float", [ Evar "i" ]));
  check_expr "nested" "a[b[i]]" (Eindex (Evar "a", Eindex (Evar "b", Evar "i")))

let parse_main body =
  Parser.parse_string ("int main() {\n" ^ body ^ "\n return 0; }")

let main_body src =
  match Ast.main_function (parse_main src) with f -> f.f_body

let test_statements () =
  (match main_body "x += 2;" with
  | [ { skind = Sassign (Lvar "x", Ebinop (Add, Evar "x", Eint 2)); _ }; _ ] ->
      ()
  | _ -> Alcotest.fail "+= desugaring");
  (match main_body "i++;" with
  | [ { skind = Sassign (Lvar "i", Ebinop (Add, Evar "i", Eint 1)); _ }; _ ] ->
      ()
  | _ -> Alcotest.fail "++ desugaring");
  (match main_body "if (x > 0) { y = 1; } else y = 2;" with
  | [ { skind = Sif (_, [ _ ], [ _ ]); _ }; _ ] -> ()
  | _ -> Alcotest.fail "if/else");
  (match main_body "while (i < 10) i++;" with
  | [ { skind = Swhile (_, [ _ ]); _ }; _ ] -> ()
  | _ -> Alcotest.fail "while");
  match main_body "for (int i = 0; i < 4; i++) { }" with
  | [ { skind = Sfor (Some { skind = Sdecl (Tint, "i", Some (Eint 0)); _ },
                      Some _, Some _, []); _ }; _ ] -> ()
  | _ -> Alcotest.fail "for header"

let test_declarations () =
  (match main_body "float a[10];" with
  | [ { skind = Sdecl (Tarr (Tfloat, Some (Eint 10)), "a", None); _ }; _ ] ->
      ()
  | _ -> Alcotest.fail "array decl");
  (match main_body "float a[n];" with
  | [ { skind = Sdecl (Tarr (Tfloat, Some (Evar "n")), "a", None); _ }; _ ] ->
      ()
  | _ -> Alcotest.fail "vla decl");
  match main_body "float *p;" with
  | [ { skind = Sdecl (Tptr Tfloat, "p", None); _ }; _ ] -> ()
  | _ -> Alcotest.fail "pointer decl"

let test_functions () =
  let p =
    Parser.parse_string
      "float f(float x, int n, float a[]) { return x; }\n\
       int main() { return 0; }"
  in
  match Ast.find_function p "f" with
  | Some f ->
      Alcotest.(check int) "arity" 3 (List.length f.f_params);
      (match (List.nth f.f_params 2).p_typ with
      | Tarr (Tfloat, None) -> ()
      | _ -> Alcotest.fail "array param type")
  | None -> Alcotest.fail "function not found"

let dir_of src =
  Parser.parse_directive ~loc:Loc.dummy src

let test_directives () =
  let d = dir_of "acc kernels loop gang worker private(t) reduction(+:s)" in
  Alcotest.(check bool) "construct" true (d.dir = Acc_kernels_loop);
  Alcotest.(check (list string)) "private" [ "t" ] (Acc.Query.private_vars d);
  (match Acc.Query.reductions d with
  | [ (Rsum, "s") ] -> ()
  | _ -> Alcotest.fail "reduction clause");
  let d = dir_of "acc data copyin(a[0:n], b) copyout(c) create(d)" in
  Alcotest.(check int) "data clause count" 4
    (List.length (Acc.Query.data_clauses d));
  (match Acc.Query.data_clauses d with
  | (Dk_copyin, { sub_var = "a"; sub_lo = Some (Eint 0);
                  sub_len = Some (Evar "n") }) :: _ -> ()
  | _ -> Alcotest.fail "subarray bounds");
  let d = dir_of "acc update host(x) device(y) async(2)" in
  Alcotest.(check int) "update host" 1
    (List.length (Acc.Query.update_host_subs d));
  (match Acc.Query.async d with
  | Some (Some (Eint 2)) -> ()
  | _ -> Alcotest.fail "async id");
  (match (dir_of "acc wait(1)").dir with
  | Acc_wait (Some (Eint 1)) -> ()
  | _ -> Alcotest.fail "wait");
  match (dir_of "acc parallel loop seq collapse(2)").dir with
  | Acc_parallel_loop -> ()
  | _ -> Alcotest.fail "parallel loop"

let test_directive_attachment () =
  let p =
    parse_main
      "#pragma acc data copyin(a)\n{\n#pragma acc kernels loop\nfor (int i \
       = 0; i < 2; i++) { }\n}\n#pragma acc wait"
  in
  let dirs = Acc.Query.directives_of p in
  Alcotest.(check int) "three directives" 3 (List.length dirs);
  match dirs with
  | [ (_, _, d1); (_, _, d2); (_, _, d3) ] ->
      Alcotest.(check bool) "data" true (d1.dir = Acc_data);
      Alcotest.(check bool) "kernels loop" true (d2.dir = Acc_kernels_loop);
      Alcotest.(check bool) "wait" true (d3.dir = Acc_wait None)
  | _ -> Alcotest.fail "directive list"

let test_errors () =
  let expect_error src =
    try
      ignore (Parser.parse_string src);
      Alcotest.fail ("expected parse error for: " ^ src)
    with Loc.Error _ -> ()
  in
  expect_error "int main() { x = ; }";
  expect_error "int main() { if x { } }";
  expect_error "int main() { for (;;) }";
  expect_error "int main() { #pragma acc bogus\n }";
  expect_error "int main() { #pragma acc kernels loop frobnicate(x)\n ; }";
  expect_error "int main() { 1 + 2 }" (* missing semicolon *);
  (* a unit with no function has no main: located at its end of input *)
  List.iter
    (fun (src, line) ->
      match Parser.parse_string ~file:"u.c" src with
      | _ -> Alcotest.fail ("expected no-main error for: " ^ String.escaped src)
      | exception Loc.Error (loc, msg) ->
          Alcotest.(check string) "no-main message"
            "program has no 'main' function" msg;
          Alcotest.(check string) "at the end of input"
            (Fmt.str "u.c:%d:1" line) (Loc.to_string loc))
    [ ("", 1); ("float g0 = 1.0;\n", 2) ]

let base_tests =
  [ Alcotest.test_case "expression precedence" `Quick test_precedence;
    Alcotest.test_case "postfix and calls" `Quick test_postfix_and_calls;
    Alcotest.test_case "statements" `Quick test_statements;
    Alcotest.test_case "declarations" `Quick test_declarations;
    Alcotest.test_case "functions" `Quick test_functions;
    Alcotest.test_case "directives" `Quick test_directives;
    Alcotest.test_case "directive attachment" `Quick test_directive_attachment;
    Alcotest.test_case "parse errors" `Quick test_errors ]

(* Fuzz: arbitrary input must either parse or fail with a located error —
   never crash with an unexpected exception. *)
let fuzz_graceful_errors =
  QCheck.Test.make ~count:500 ~name:"parser fails gracefully on any input"
    (QCheck.make
       QCheck.Gen.(
         let token =
           oneofl
             [ "int"; "float"; "main"; "("; ")"; "{"; "}"; "["; "]"; ";";
               "="; "+"; "for"; "if"; "x"; "a"; "1"; "2.5"; "#pragma";
               "acc"; "kernels"; "loop"; "copyin"; ","; "<"; "++"; "return";
               "&&"; "?"; ":"; "*" ]
         in
         map (String.concat " ") (list_size (int_bound 40) token))
       ~print:Fun.id)
    (fun src ->
      match Parser.parse_string src with
      | _ -> true
      | exception Loc.Error _ -> true
      | exception _ -> false)

(* Pipeline fuzz: sources that parse must also typecheck/validate/translate
   cleanly or fail with one of the documented error exceptions. *)
let fuzz_pipeline =
  QCheck.Test.make ~count:200 ~name:"pipeline fails gracefully"
    (QCheck.make
       QCheck.Gen.(
         let stmts =
           oneofl
             [ "a[0] = 1.0;"; "x = x + 1;"; "float y = a[x];";
               "#pragma acc kernels loop\nfor (int i = 0; i < 4; i++) { \
                a[i] = 0.0; }";
               "#pragma acc update host(a)";
               "#pragma acc data copyin(a)\n{ }";
               "if (x > 0) { x = 0; }";
               "for (int k = 0; k < 2; k++) { a[k] = float(k); }" ]
         in
         map
           (fun body ->
             "int main() { float a[4]; int x = 0;\n"
             ^ String.concat "\n" body ^ "\nreturn 0; }")
           (list_size (int_bound 6) stmts))
       ~print:Fun.id)
    (fun src ->
      match
        let prog = Parser.parse_string src in
        Acc.Validate.check_program prog;
        let env = Typecheck.check prog in
        ignore (Codegen.Translate.translate env prog)
      with
      | () -> true
      | exception (Loc.Error _ | Acc.Validate.Invalid _) -> true
      | exception _ -> false)

let fuzz_tests =
  [ QCheck_alcotest.to_alcotest fuzz_graceful_errors;
    QCheck_alcotest.to_alcotest fuzz_pipeline ]

let tests = base_tests @ fuzz_tests
