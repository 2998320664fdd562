(* Pretty-printer round-trip: pretty-printed output re-parses to a
   structurally equal AST.  Unit cases plus QCheck generators for random
   expressions and statements. *)

open Minic
open Minic.Ast

let roundtrip_program src =
  let p1 = Parser.parse_string src in
  let printed = Pretty.program_to_string p1 in
  let p2 =
    try Parser.parse_string printed
    with Loc.Error (l, m) ->
      Alcotest.failf "re-parse failed (%s: %s) for:@.%s" (Loc.to_string l) m
        printed
  in
  if not (equal_program p1 p2) then
    Alcotest.failf "round-trip mismatch:@.%s@.vs@.%s" printed
      (Pretty.program_to_string p2)

let test_units () =
  List.iter roundtrip_program
    [ "int main() { return 0; }";
      "float g; int main() { g = 1.5; return 0; }";
      "int main() { int n = 8; float a[n]; for (int i = 0; i < n; i++) { \
       a[i] = float(i) * 2.0; } return 0; }";
      "int main() { float x = 0.0; if (x < 1.0 && x > 0.0 - 1.0) { x = x / \
       2.0; } else { x = 0.25; } return 0; }";
      "int main() { int i = 0; while (i < 3) { i++; if (i == 2) { break; } \
       } return 0; }";
      "float f(float x) { return x * x; }\nint main() { float y = f(2.0); \
       return 0; }";
      "int main() { float a[4]; float *p; p = a; p[0] = 1.0; return 0; }";
      "int main() { int x = 1 == 2 ? 3 : 4; return 0; }" ]

let test_directive_roundtrip () =
  List.iter roundtrip_program
    [ "int main() { float a[4]; float s; float t;\n#pragma acc data \
       copyin(a[0:4]) copyout(a)\n{\n#pragma acc kernels loop gang worker \
       private(t) reduction(+:s) async(1)\nfor (int i = 0; i < 4; i++) { s \
       = s + a[i]; }\n#pragma acc wait(1)\n}\nreturn 0; }";
      "int main() { float a[4];\n#pragma acc update host(a[0:2]) \
       async\n#pragma acc update device(a)\nreturn 0; }";
      "int main() { float a[4];\n#pragma acc parallel loop num_gangs(4) \
       num_workers(8) vector_length(32) if(1)\nfor (int i = 0; i < 4; i++) \
       { a[i] = 0.0; }\nreturn 0; }";
      "int main() { float a[4];\n#pragma acc kernels loop collapse(2) \
       independent\nfor (int i = 0; i < 4; i++) { a[i] = 1.0; }\nreturn 0; \
       }" ]

(* ---------------- QCheck generators ---------------- *)

let gen_var = QCheck.Gen.oneofl [ "x"; "y"; "z" ]
let gen_arr = QCheck.Gen.oneofl [ "a"; "b" ]

let gen_expr =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        if n <= 0 then
          oneof
            [ map (fun i -> Eint (abs i mod 100)) small_int;
              map (fun f -> Efloat (Float.of_int (abs f mod 50) /. 4.0))
                small_int;
              map (fun v -> Evar v) gen_var ]
        else
          frequency
            [ (2, map (fun v -> Evar v) gen_var);
              (3,
               map3
                 (fun op a b -> Ebinop (op, a, b))
                 (oneofl [ Add; Sub; Mul; Lt; Le; Eq; Land; Lor ])
                 (self (n / 2)) (self (n / 2)));
              (1, map (fun a -> Eunop (Neg, a)) (self (n - 1)));
              (1, map (fun a -> Eunop (Not, a)) (self (n - 1)));
              (1,
               map2 (fun arr i -> Eindex (Evar arr, i)) gen_arr (self (n / 2)));
              (1, map (fun a -> Ecall ("sqrt", [ a ])) (self (n - 1)));
              (1,
               map3 (fun c a b -> Econd (c, a, b)) (self (n / 3))
                 (self (n / 3)) (self (n / 3))) ]))

let gen_stmt =
  QCheck.Gen.(
    sized @@ fix (fun self n ->
        let leaf =
          oneof
            [ map (fun e -> mk_stmt (Sassign (Lvar "x", e))) gen_expr;
              map2
                (fun arr e -> mk_stmt (Sassign (Lindex (Lvar arr, Eint 0), e)))
                gen_arr gen_expr;
              return (mk_stmt Sskip) ]
        in
        if n <= 0 then leaf
        else
          frequency
            [ (3, leaf);
              (1,
               map3
                 (fun c s1 s2 -> mk_stmt (Sif (c, [ s1 ], [ s2 ])))
                 gen_expr (self (n / 2)) (self (n / 2)));
              (1,
               map2
                 (fun s1 s2 -> mk_stmt (Sblock [ s1; s2 ]))
                 (self (n / 2)) (self (n / 2))) ]))

let expr_roundtrip =
  QCheck.Test.make ~count:500 ~name:"pretty/parse round-trip (expressions)"
    (QCheck.make gen_expr ~print:Pretty.expr_to_string)
    (fun e ->
      let printed = Pretty.expr_to_string e in
      equal_expr e (Parser.expr_of_string printed))

let stmt_roundtrip =
  QCheck.Test.make ~count:300 ~name:"pretty/parse round-trip (statements)"
    (QCheck.make gen_stmt ~print:Pretty.stmt_to_string)
    (fun s ->
      (* Wrap in a program so declarations exist. *)
      let prog =
        { globals =
            [ Gfunc
                { f_ret = Tint; f_name = "main"; f_params = [];
                  f_body =
                    [ mk_stmt (Sdecl (Tfloat, "x", Some (Efloat 0.)));
                      mk_stmt (Sdecl (Tfloat, "y", Some (Efloat 1.)));
                      mk_stmt (Sdecl (Tfloat, "z", Some (Efloat 2.)));
                      mk_stmt (Sdecl (Tarr (Tfloat, Some (Eint 4)), "a", None));
                      mk_stmt (Sdecl (Tarr (Tfloat, Some (Eint 4)), "b", None));
                      s;
                      mk_stmt (Sreturn (Some (Eint 0))) ];
                  f_loc = Loc.dummy } ]
        }
      in
      let printed = Pretty.program_to_string prog in
      equal_program prog (Parser.parse_string printed))

(* The printed source, hand-optimized and fault builds of every suite
   program, kept under test/golden/ and rendered by [Goldens]. *)
let test_golden () =
  List.iter
    (fun b ->
      List.iter
        (fun (name, render) ->
          Alcotest.(check string)
            (Fmt.str "%s matches its golden print" name)
            (Goldens.read name) (render ()))
        (Goldens.printer_files b))
    Suite.Registry.all

let tests =
  [ Alcotest.test_case "unit round-trips" `Quick test_units;
    Alcotest.test_case "directive round-trips" `Quick test_directive_roundtrip;
    Alcotest.test_case "printer golden" `Quick test_golden;
    QCheck_alcotest.to_alcotest expr_roundtrip;
    QCheck_alcotest.to_alcotest stmt_roundtrip ]
