(* Lexer unit tests: token streams, pragma handling, comments, errors. *)

open Minic

let toks src = List.map (fun l -> l.Lexer.tok) (Lexer.tokenize ~file:"t" src)

let check_toks name src expected =
  Alcotest.(check (list string))
    name expected
    (List.map Token.to_string (toks src))

let test_numbers () =
  check_toks "ints" "0 42 123" [ "0"; "42"; "123"; "<eof>" ];
  check_toks "floats" "1.5 0.25" [ "1.5"; "0.25"; "<eof>" ];
  check_toks "exponent" "1e3" [ "1000."; "<eof>" ];
  check_toks "neg exponent" "2.5e-1" [ "0.25"; "<eof>" ]

let test_identifiers_keywords () =
  check_toks "ident" "foo _bar x1" [ "foo"; "_bar"; "x1"; "<eof>" ];
  check_toks "keywords" "int float void if else while for return"
    [ "int"; "float"; "void"; "if"; "else"; "while"; "for"; "return";
      "<eof>" ];
  check_toks "double keyword" "double" [ "double"; "<eof>" ];
  check_toks "break continue" "break continue" [ "break"; "continue"; "<eof>" ]

let test_operators () =
  check_toks "two-char" "<= >= == != && || += -= *= /= ++ --"
    [ "<="; ">="; "=="; "!="; "&&"; "||"; "+="; "-="; "*="; "/="; "++"; "--";
      "<eof>" ];
  check_toks "one-char" "+ - * / % < > = ! ( ) { } [ ] , ; ? :"
    [ "+"; "-"; "*"; "/"; "%"; "<"; ">"; "="; "!"; "("; ")"; "{"; "}"; "[";
      "]"; ","; ";"; "?"; ":"; "<eof>" ]

let test_comments () =
  check_toks "line comment" "a // comment\nb" [ "a"; "b"; "<eof>" ];
  check_toks "block comment" "a /* x\ny */ b" [ "a"; "b"; "<eof>" ];
  Alcotest.check_raises "unterminated comment"
    (Loc.Error (Loc.make ~file:"t" ~line:1 ~col:3, "unterminated comment"))
    (fun () -> ignore (toks "a /* never closed"))

(* A directive lexes as PRAGMA, its words where they stand, and PRAGMA_END
   at the end of its line. *)
let test_pragma () =
  (match toks "#pragma acc kernels loop" with
  | [ Token.PRAGMA; Token.IDENT "acc"; Token.IDENT "kernels";
      Token.IDENT "loop"; Token.PRAGMA_END; Token.EOF ] -> ()
  | _ -> Alcotest.fail "expected the directive's words");
  (* backslash continuation joins lines: the clause keeps its own line *)
  (match Lexer.tokenize ~file:"t" "#pragma acc data \\\n copyin(a)" with
  | [ { tok = Token.PRAGMA; _ }; { tok = Token.IDENT "acc"; _ };
      { tok = Token.IDENT "data"; _ };
      { tok = Token.IDENT "copyin"; loc }; { tok = Token.LPAREN; _ };
      { tok = Token.IDENT "a"; _ }; { tok = Token.RPAREN; _ };
      { tok = Token.PRAGMA_END; _ }; { tok = Token.EOF; _ } ] ->
      Alcotest.(check (pair int int)) "continued clause at 2:2" (2, 2)
        (loc.Loc.line, loc.Loc.col)
  | _ -> Alcotest.fail "expected one continued directive");
  (* code resumes on the next line *)
  match toks "#pragma acc wait\nx" with
  | [ Token.PRAGMA; Token.IDENT "acc"; Token.IDENT "wait"; Token.PRAGMA_END;
      Token.IDENT "x"; Token.EOF ] -> ()
  | _ -> Alcotest.fail "statement after pragma lost"

let test_positions () =
  let lexed = Lexer.tokenize ~file:"f" "a\n  b" in
  match lexed with
  | [ a; b; _eof ] ->
      Alcotest.(check int) "line a" 1 a.Lexer.loc.Loc.line;
      Alcotest.(check int) "line b" 2 b.Lexer.loc.Loc.line;
      Alcotest.(check int) "col b" 3 b.Lexer.loc.Loc.col
  | _ -> Alcotest.fail "expected two tokens"

let test_errors () =
  (try
     ignore (toks "a $ b");
     Alcotest.fail "expected lexing error"
   with Loc.Error (_, msg) ->
     Alcotest.(check bool) "mentions char" true
       (String.length msg > 0));
  (try
     ignore (toks "#foo acc x");
     Alcotest.fail "expected pragma error"
   with Loc.Error (_, msg) ->
     Alcotest.(check bool) "pragma msg" true
       (String.length msg > 0));
  (* [pragma] must end at a non-identifier character *)
  List.iter
    (fun src ->
      Alcotest.check_raises src
        (Loc.Error (Loc.make ~file:"t" ~line:2 ~col:1,
                    "expected 'pragma' after '#'"))
        (fun () -> ignore (toks ("int x;\n" ^ src))))
    [ "#pragmaacc kernels loop"; "#pragmafoo" ];
  (* an integer literal past max_int (2^62 - 1) is located at the literal *)
  check_toks "max_int" "4611686018427387903" [ "4611686018427387903"; "<eof>" ];
  Alcotest.check_raises "out-of-range integer"
    (Loc.Error
       ( Loc.make ~file:"t" ~line:2 ~col:9,
         "integer literal 99999999999999999999 is out of range" ))
    (fun () -> ignore (toks "int x;\nint y = 99999999999999999999;"))

let tests =
  [ Alcotest.test_case "numbers" `Quick test_numbers;
    Alcotest.test_case "identifiers and keywords" `Quick
      test_identifiers_keywords;
    Alcotest.test_case "operators" `Quick test_operators;
    Alcotest.test_case "comments" `Quick test_comments;
    Alcotest.test_case "pragmas" `Quick test_pragma;
    Alcotest.test_case "positions" `Quick test_positions;
    Alcotest.test_case "errors" `Quick test_errors ]
