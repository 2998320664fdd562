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

(* The directive of a one-directive program: "#pragma " ^ [src]. *)
let dir_of src =
  match main_body ("#pragma " ^ src ^ "\n;") with
  | { skind = Sacc (d, _); _ } :: _ -> d
  | _ -> Alcotest.fail ("expected a directive for: " ^ src)

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
  (* Located errors.  A unit with no function has no main: located at its
     end of input.  Errors inside a directive are located where they stand
     in the file: a clause's own errors at its name, a continued clause on
     its own line, syntax errors at the offending token, and the end of the
     directive at the end of its line.  The first error in source order is
     reported. *)
  let error_of src =
    match Parser.parse_string ~file:"u.c" src with
    | _ -> Alcotest.fail ("expected a parse error for: " ^ String.escaped src)
    | exception Loc.Error (loc, msg) -> Loc.to_string loc ^ ": " ^ msg
  in
  let program dir =
    "int main() {\n  float a[4];\n" ^ dir
    ^ "\n  for (int i = 0; i < 4; i++) { a[i] = 1.0; }\n  return 0; }\n"
  in
  List.iter
    (fun (src, expected) ->
      Alcotest.(check string) (String.escaped src) expected (error_of src))
    [ ("", "u.c:1:1: program has no 'main' function");
      ("float g0 = 1.0;\n", "u.c:2:1: program has no 'main' function");
      ( program "  #pragma acc kernels loop frobnicate(x)",
        "u.c:3:28: unknown OpenACC clause 'frobnicate'" );
      ( program "  #pragma acc kernels loop gang \\\n    frobnicate(x)",
        "u.c:4:5: unknown OpenACC clause 'frobnicate'" );
      ( program "  #pragma acc kernels loop collapse(a[0])",
        "u.c:3:28: collapse expects an integer literal" );
      ( program "  #pragma acc kernels loop copyin(a[0:4)",
        "u.c:3:40: expected ']' but found ')'" );
      ( program "  #pragma acc kernels loop copyin(a",
        "u.c:3:36: expected ')' but found '<eof>'" );
      ( program "  #pragma acc kernels loop gang ; worker",
        "u.c:3:33: unexpected token ';' in directive" );
      ( program "  #pragma acc frobnicate",
        "u.c:3:3: unknown OpenACC construct 'frobnicate'" );
      ("int main() { x = ; $ }", "u.c:1:18: expected expression, found ';'");
      ( "int main() { int x = 99999999999999999999; return 0; }",
        "u.c:1:22: integer literal 99999999999999999999 is out of range" ) ]

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

(* Raw-text fuzz: seeded single-byte deletions, duplications and
   replacements of the suite's source and hand-optimized texts and its
   printed fault builds.  The replacements include the bytes that open
   comments, directives and continuations, and a 20-digit integer past
   max_int.  Each mutant must parse or raise [Loc.Error] located inside its
   text; any other exception fails. *)
let mutation_alphabet =
  [| "0"; "7"; "9"; "#"; "\\"; "/"; "*"; "\n"; "("; ")"; ";"; "{"; "}";
     "."; "e"; "99999999999999999999" |]

let mutate rng src =
  let n = String.length src in
  let i = Random.State.int rng n in
  let rest = String.sub src (i + 1) (n - i - 1) in
  match Random.State.int rng 3 with
  | 0 -> String.sub src 0 i ^ rest
  | 1 -> String.sub src 0 (i + 1) ^ String.sub src i (n - i)
  | _ ->
      let r = Random.State.int rng (Array.length mutation_alphabet) in
      String.sub src 0 i ^ mutation_alphabet.(r) ^ rest

(* Is [loc] a position of [src]: a line of it, and a column on that line
   or just past its end? *)
let inside src (loc : Loc.t) =
  let lines = Array.of_list (String.split_on_char '\n' src) in
  loc.file = "mutant.c" && loc.line >= 1
  && loc.line <= Array.length lines
  && loc.col >= 1
  && loc.col <= String.length lines.(loc.line - 1) + 1

let test_raw_mutations () =
  let rng = Random.State.make [| 36 |] in
  let texts =
    List.concat_map
      (fun (b : Suite.Bench_def.t) ->
        [ b.source; b.optimized;
          Pretty.program_to_string
            (Openarc_core.Faults.strip_parallelism_clauses
               (Parser.parse_string b.source)) ])
      Suite.Registry.all
  in
  List.iter
    (fun text ->
      for _ = 1 to 10 do
        let src = mutate rng text in
        let src = if Random.State.bool rng then mutate rng src else src in
        match Parser.parse_string ~file:"mutant.c" src with
        | _ -> ()
        | exception Loc.Error (loc, msg) ->
            if not (inside src loc) then
              Alcotest.failf "error outside its input at %s: %s@.%s"
                (Loc.to_string loc) msg src
        | exception e ->
            Alcotest.failf "unexpected exception %s@.%s"
              (Printexc.to_string e) src
      done)
    texts

let fuzz_tests =
  [ QCheck_alcotest.to_alcotest fuzz_graceful_errors;
    QCheck_alcotest.to_alcotest fuzz_pipeline;
    Alcotest.test_case "raw-text mutations" `Quick test_raw_mutations ]

let tests = base_tests @ fuzz_tests
