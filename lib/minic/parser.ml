(** Recursive-descent parser for Mini-C and its OpenACC pragmas. *)

open Ast

(* One token of lookahead, [tok], pulled from the lexer as the parser
   moves on; the lexer holds its location.  [sid] is the id of the last
   statement built: each parse numbers its statements 1, 2, ... as it
   completes them. *)
type cursor = { lex : Lexer.state; mutable tok : Token.t; mutable sid : int }

let bump c = c.tok <- Lexer.next c.lex

let cursor ~file src =
  let lex = Lexer.make ~file src in
  { lex; tok = Lexer.next lex; sid = 0 }

let loc c = Lexer.loc c.lex

let fail c fmt = Loc.error (loc c) fmt

let mk_stmt c ~loc skind =
  c.sid <- c.sid + 1;
  { sid = c.sid; sloc = loc; skind }

(* [expect] and [accept] take a token without a payload.  Those are
   immediates, so [==] compares them in one instruction where the
   polymorphic [=] is a call into the runtime. *)
let expect c tok =
  if c.tok == tok then bump c
  else
    fail c "expected '%s' but found '%s'" (Token.to_string tok)
      (Token.to_string c.tok)

let accept c tok = if c.tok == tok then (bump c; true) else false

let expect_ident c =
  match c.tok with
  | Token.IDENT s -> bump c; s
  | t -> fail c "expected identifier, found '%s'" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_expr c = parse_cond c

and parse_cond c =
  let e = parse_lor c in
  if accept c Token.QUESTION then begin
    let a = parse_expr c in
    expect c Token.COLON;
    let b = parse_cond c in
    Econd (e, a, b)
  end
  else e

and parse_lor c =
  let rec loop e =
    if accept c Token.BARBAR then loop (Ebinop (Lor, e, parse_land c)) else e
  in
  loop (parse_land c)

and parse_land c =
  let rec loop e =
    if accept c Token.AMPAMP then loop (Ebinop (Land, e, parse_equality c))
    else e
  in
  loop (parse_equality c)

and parse_equality c =
  let rec loop e =
    match c.tok with
    | Token.EQEQ -> bump c; loop (Ebinop (Eq, e, parse_relational c))
    | Token.NE -> bump c; loop (Ebinop (Ne, e, parse_relational c))
    | _ -> e
  in
  loop (parse_relational c)

and parse_relational c =
  let rec loop e =
    match c.tok with
    | Token.LT -> bump c; loop (Ebinop (Lt, e, parse_additive c))
    | Token.LE -> bump c; loop (Ebinop (Le, e, parse_additive c))
    | Token.GT -> bump c; loop (Ebinop (Gt, e, parse_additive c))
    | Token.GE -> bump c; loop (Ebinop (Ge, e, parse_additive c))
    | _ -> e
  in
  loop (parse_additive c)

and parse_additive c =
  let rec loop e =
    match c.tok with
    | Token.PLUS -> bump c; loop (Ebinop (Add, e, parse_multiplicative c))
    | Token.MINUS -> bump c; loop (Ebinop (Sub, e, parse_multiplicative c))
    | _ -> e
  in
  loop (parse_multiplicative c)

and parse_multiplicative c =
  let rec loop e =
    match c.tok with
    | Token.STAR -> bump c; loop (Ebinop (Mul, e, parse_unary c))
    | Token.SLASH -> bump c; loop (Ebinop (Div, e, parse_unary c))
    | Token.PERCENT -> bump c; loop (Ebinop (Mod, e, parse_unary c))
    | _ -> e
  in
  loop (parse_unary c)

and parse_unary c =
  match c.tok with
  | Token.MINUS -> (
      bump c;
      (* Fold a directly-negated literal so "-1.5" round-trips as a
         literal; parenthesized operands keep their Eunop structure. *)
      match c.tok with
      | Token.INT_LIT n -> bump c; parse_postfix_tail c (Eint (-n))
      | Token.FLOAT_LIT f -> bump c; parse_postfix_tail c (Efloat (-.f))
      | _ -> Eunop (Neg, parse_unary c))
  | Token.BANG -> bump c; Eunop (Not, parse_unary c)
  | Token.PLUS -> bump c; parse_unary c
  | _ -> parse_postfix c

and parse_postfix c = parse_postfix_tail c (parse_primary c)

and parse_postfix_tail c e =
  if accept c Token.LBRACKET then begin
    let i = parse_expr c in
    expect c Token.RBRACKET;
    parse_postfix_tail c (Eindex (e, i))
  end
  else e

and parse_primary c =
  match c.tok with
  | Token.INT_LIT n -> bump c; Eint n
  | Token.FLOAT_LIT f -> bump c; Efloat f
  | Token.IDENT name ->
      bump c;
      if accept c Token.LPAREN then begin
        let args =
          if c.tok = Token.RPAREN then []
          else
            let rec more acc =
              if accept c Token.COMMA then more (parse_expr c :: acc)
              else List.rev acc
            in
            more [ parse_expr c ]
        in
        expect c Token.RPAREN;
        Ecall (name, args)
      end
      else Evar name
  | Token.KW_FLOAT | Token.KW_DOUBLE ->
      (* Conversion call "float(e)". *)
      bump c;
      expect c Token.LPAREN;
      let e = parse_expr c in
      expect c Token.RPAREN;
      Ecall ("float", [ e ])
  | Token.KW_INT ->
      bump c;
      expect c Token.LPAREN;
      let e = parse_expr c in
      expect c Token.RPAREN;
      Ecall ("int", [ e ])
  | Token.LPAREN ->
      bump c;
      (* Allow C-style casts "(float) e" / "(int) e": Mini-C treats them as
         the intrinsic conversions float()/int(). *)
      (match c.tok with
      | Token.KW_FLOAT | Token.KW_DOUBLE ->
          bump c;
          expect c Token.RPAREN;
          Ecall ("float", [ parse_unary c ])
      | Token.KW_INT ->
          bump c;
          expect c Token.RPAREN;
          Ecall ("int", [ parse_unary c ])
      | _ ->
          let e = parse_expr c in
          expect c Token.RPAREN;
          e)
  | t -> fail c "expected expression, found '%s'" (Token.to_string t)

(* ------------------------------------------------------------------ *)
(* OpenACC pragma parsing                                              *)
(* ------------------------------------------------------------------ *)

let parse_subarray c =
  let sub_var = expect_ident c in
  if accept c Token.LBRACKET then begin
    let lo = parse_expr c in
    expect c Token.COLON;
    let len = parse_expr c in
    expect c Token.RBRACKET;
    { sub_var; sub_lo = Some lo; sub_len = Some len }
  end
  else { sub_var; sub_lo = None; sub_len = None }

let parse_subarray_list c =
  expect c Token.LPAREN;
  let rec more acc =
    if accept c Token.COMMA then more (parse_subarray c :: acc)
    else List.rev acc
  in
  let l = more [ parse_subarray c ] in
  expect c Token.RPAREN;
  l

let parse_ident_list c =
  expect c Token.LPAREN;
  let rec more acc =
    if accept c Token.COMMA then more (expect_ident c :: acc) else List.rev acc
  in
  let l = more [ expect_ident c ] in
  expect c Token.RPAREN;
  l

let parse_paren_expr c =
  expect c Token.LPAREN;
  let e = parse_expr c in
  expect c Token.RPAREN;
  e

let parse_opt_paren_expr c =
  if c.tok = Token.LPAREN then Some (parse_paren_expr c) else None

let redop_of_token c =
  match c.tok with
  | Token.PLUS -> bump c; Rsum
  | Token.STAR -> bump c; Rprod
  | Token.AMPAMP -> bump c; Rland
  | Token.BARBAR -> bump c; Rlor
  | Token.IDENT "max" -> bump c; Rmax
  | Token.IDENT "min" -> bump c; Rmin
  | t -> fail c "expected reduction operator, found '%s'" (Token.to_string t)

let data_kind_of_name = function
  | "copy" -> Some Dk_copy
  | "copyin" -> Some Dk_copyin
  | "copyout" -> Some Dk_copyout
  | "create" -> Some Dk_create
  | "present" -> Some Dk_present
  | "pcopy" | "present_or_copy" -> Some Dk_pcopy
  | "pcopyin" | "present_or_copyin" -> Some Dk_pcopyin
  | "pcopyout" | "present_or_copyout" -> Some Dk_pcopyout
  | "pcreate" | "present_or_create" -> Some Dk_pcreate
  | "deviceptr" -> Some Dk_deviceptr
  | _ -> None

(* A clause's errors are located at its name, [loc]. *)
let parse_clause c ~loc name =
  match data_kind_of_name name with
  | Some kind -> Cdata (kind, parse_subarray_list c)
  | None -> (
      match name with
      | "private" -> Cprivate (parse_ident_list c)
      | "firstprivate" -> Cfirstprivate (parse_ident_list c)
      | "reduction" ->
          expect c Token.LPAREN;
          let op = redop_of_token c in
          expect c Token.COLON;
          let rec more acc =
            if accept c Token.COMMA then more (expect_ident c :: acc)
            else List.rev acc
          in
          let vars = more [ expect_ident c ] in
          expect c Token.RPAREN;
          Creduction (op, vars)
      | "gang" -> Cgang (parse_opt_paren_expr c)
      | "worker" -> Cworker (parse_opt_paren_expr c)
      | "vector" -> Cvector (parse_opt_paren_expr c)
      | "num_gangs" -> Cnum_gangs (parse_paren_expr c)
      | "num_workers" -> Cnum_workers (parse_paren_expr c)
      | "vector_length" -> Cvector_length (parse_paren_expr c)
      | "async" -> Casync (parse_opt_paren_expr c)
      | "if" -> Cif (parse_paren_expr c)
      | "collapse" -> (
          match parse_paren_expr c with
          | Eint n -> Ccollapse n
          | _ -> Loc.error loc "collapse expects an integer literal")
      | "seq" -> Cseq
      | "independent" -> Cindependent
      | "host" -> Chost (parse_subarray_list c)
      | "device" -> Cdevice (parse_subarray_list c)
      | "use_device" -> Cuse_device (parse_ident_list c)
      | _ -> Loc.error loc "unknown OpenACC clause '%s'" name)

(* The clauses up to the end of the directive's line, which is consumed. *)
let parse_clauses c =
  let rec loop acc =
    match c.tok with
    | Token.IDENT name ->
        let loc = loc c in
        bump c;
        loop (parse_clause c ~loc name :: acc)
    | Token.KW_IF ->
        (* "if" is a keyword to the lexer but a clause name here *)
        let loc = loc c in
        bump c;
        loop (parse_clause c ~loc "if" :: acc)
    | Token.COMMA -> bump c; loop acc
    | Token.PRAGMA_END -> bump c; List.rev acc
    | t -> fail c "unexpected token '%s' in directive" (Token.to_string t)
  in
  loop []

(* The directive after a [#pragma] at [loc], through the end of its line. *)
let parse_directive c ~loc =
  (match c.tok with
  | Token.IDENT "acc" -> bump c
  | _ -> Loc.error loc "expected 'acc' after #pragma");
  let construct =
    match c.tok with
    | Token.IDENT "parallel" -> (
        bump c;
        match c.tok with
        | Token.IDENT "loop" -> bump c; Acc_parallel_loop
        | _ -> Acc_parallel)
    | Token.IDENT "kernels" -> (
        bump c;
        match c.tok with
        | Token.IDENT "loop" -> bump c; Acc_kernels_loop
        | _ -> Acc_kernels)
    | Token.IDENT "data" -> bump c; Acc_data
    | Token.IDENT "host_data" -> bump c; Acc_host_data
    | Token.IDENT "loop" -> bump c; Acc_loop
    | Token.IDENT "update" -> bump c; Acc_update
    | Token.IDENT "declare" -> bump c; Acc_declare
    | Token.IDENT "wait" ->
        bump c;
        Acc_wait (parse_opt_paren_expr c)
    | Token.IDENT "cache" ->
        bump c;
        Acc_cache (parse_subarray_list c)
    | t -> Loc.error loc "unknown OpenACC construct '%s'" (Token.to_string t)
  in
  let clauses = parse_clauses c in
  { dir = construct; clauses; dloc = loc }

(** Does this directive introduce a structured block/statement body? *)
let directive_has_body d =
  match d.dir with
  | Acc_parallel | Acc_kernels | Acc_data | Acc_host_data | Acc_loop
  | Acc_parallel_loop | Acc_kernels_loop -> true
  | Acc_update | Acc_declare | Acc_wait _ | Acc_cache _ -> false

(* ------------------------------------------------------------------ *)
(* Types and declarations                                              *)
(* ------------------------------------------------------------------ *)

let parse_base_type c =
  match c.tok with
  | Token.KW_INT -> bump c; Tint
  | Token.KW_FLOAT | Token.KW_DOUBLE -> bump c; Tfloat
  | Token.KW_VOID -> bump c; Tvoid
  | t -> fail c "expected a type, found '%s'" (Token.to_string t)

let is_type_start c =
  match c.tok with
  | Token.KW_INT | Token.KW_FLOAT | Token.KW_DOUBLE | Token.KW_VOID -> true
  | _ -> false

(* "[e1][e2]..." dimension suffixes, outermost first; a leading "[]" means
   an unsized (parameter-style) array. *)
let parse_dims c =
  let rec go acc =
    if accept c Token.LBRACKET then
      if accept c Token.RBRACKET then go (None :: acc)
      else begin
        let e = parse_expr c in
        expect c Token.RBRACKET;
        go (Some e :: acc)
      end
    else List.rev acc
  in
  go []

let apply_dims base dims =
  List.fold_right (fun ext t -> Tarr (t, ext)) dims base

(* "<base> *? name ([expr]...)?" -> type and name *)
let parse_declarator c =
  let base = parse_base_type c in
  let base = if accept c Token.STAR then Tptr base else base in
  let name = expect_ident c in
  let typ =
    match parse_dims c with [] -> base | dims -> apply_dims base dims
  in
  (typ, name)

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let desugar_binop op lv e = Sassign (lv, Ebinop (op, lvalue_to_expr lv, e))

let rec parse_lvalue_from_expr c e =
  match expr_to_lvalue e with
  | Some lv -> lv
  | None -> fail c "expression is not assignable"

(* An expression statement body (no trailing ';'): assignment, op-assign,
   incr/decr or call. *)
and parse_simple_stmt c =
  let loc = loc c in
  let e = parse_expr c in
  let k =
    match c.tok with
    | Token.ASSIGN ->
        bump c;
        Sassign (parse_lvalue_from_expr c e, parse_expr c)
    | Token.PLUSEQ ->
        bump c;
        desugar_binop Add (parse_lvalue_from_expr c e) (parse_expr c)
    | Token.MINUSEQ ->
        bump c;
        desugar_binop Sub (parse_lvalue_from_expr c e) (parse_expr c)
    | Token.STAREQ ->
        bump c;
        desugar_binop Mul (parse_lvalue_from_expr c e) (parse_expr c)
    | Token.SLASHEQ ->
        bump c;
        desugar_binop Div (parse_lvalue_from_expr c e) (parse_expr c)
    | Token.PLUSPLUS ->
        bump c;
        desugar_binop Add (parse_lvalue_from_expr c e) (Eint 1)
    | Token.MINUSMINUS ->
        bump c;
        desugar_binop Sub (parse_lvalue_from_expr c e) (Eint 1)
    | _ -> Sexpr e
  in
  mk_stmt c ~loc k

and parse_decl_stmt c =
  let loc = loc c in
  let typ, name = parse_declarator c in
  let init = if accept c Token.ASSIGN then Some (parse_expr c) else None in
  expect c Token.SEMI;
  mk_stmt c ~loc (Sdecl (typ, name, init))

and parse_stmt c =
  let loc = loc c in
  match c.tok with
  | Token.SEMI -> bump c; mk_stmt c ~loc Sskip
  | Token.LBRACE ->
      bump c;
      let b = parse_block_items c in
      expect c Token.RBRACE;
      mk_stmt c ~loc (Sblock b)
  | Token.KW_IF ->
      bump c;
      expect c Token.LPAREN;
      let cond = parse_expr c in
      expect c Token.RPAREN;
      let then_b = parse_stmt_as_block c in
      let else_b =
        if accept c Token.KW_ELSE then parse_stmt_as_block c else []
      in
      mk_stmt c ~loc (Sif (cond, then_b, else_b))
  | Token.KW_WHILE ->
      bump c;
      expect c Token.LPAREN;
      let cond = parse_expr c in
      expect c Token.RPAREN;
      let body = parse_stmt_as_block c in
      mk_stmt c ~loc (Swhile (cond, body))
  | Token.KW_FOR ->
      bump c;
      expect c Token.LPAREN;
      let init =
        if c.tok = Token.SEMI then (bump c; None)
        else if is_type_start c then Some (parse_decl_stmt c)
        else begin
          let s = parse_simple_stmt c in
          expect c Token.SEMI;
          Some s
        end
      in
      let cond =
        if c.tok = Token.SEMI then None else Some (parse_expr c)
      in
      expect c Token.SEMI;
      let step =
        if c.tok = Token.RPAREN then None else Some (parse_simple_stmt c)
      in
      expect c Token.RPAREN;
      let body = parse_stmt_as_block c in
      mk_stmt c ~loc (Sfor (init, cond, step, body))
  | Token.KW_RETURN ->
      bump c;
      let e = if c.tok = Token.SEMI then None else Some (parse_expr c) in
      expect c Token.SEMI;
      mk_stmt c ~loc (Sreturn e)
  | Token.KW_BREAK ->
      bump c;
      expect c Token.SEMI;
      mk_stmt c ~loc Sbreak
  | Token.KW_CONTINUE ->
      bump c;
      expect c Token.SEMI;
      mk_stmt c ~loc Scontinue
  | Token.PRAGMA ->
      bump c;
      let dir = parse_directive c ~loc in
      if directive_has_body dir then
        let body = parse_stmt c in
        mk_stmt c ~loc (Sacc (dir, Some body))
      else
        mk_stmt c ~loc (Sacc (dir, None))
  | _ when is_type_start c -> parse_decl_stmt c
  | _ ->
      let s = parse_simple_stmt c in
      expect c Token.SEMI;
      s

and parse_stmt_as_block c =
  let s = parse_stmt c in
  match s.skind with Sblock b -> b | _ -> [ s ]

and parse_block_items c =
  let rec loop acc =
    match c.tok with
    | Token.RBRACE | Token.EOF -> List.rev acc
    | _ -> loop (parse_stmt c :: acc)
  in
  loop []

(* ------------------------------------------------------------------ *)
(* Program                                                             *)
(* ------------------------------------------------------------------ *)

(* A parameter whose base type, [base], is already parsed. *)
let parse_param_after c base =
  let base = if accept c Token.STAR then Tptr base else base in
  let name = expect_ident c in
  let typ =
    if accept c Token.LBRACKET then begin
      if c.tok <> Token.RBRACKET then ignore (parse_expr c);
      expect c Token.RBRACKET;
      Tarr (base, None)
    end
    else base
  in
  { p_typ = typ; p_name = name }

let parse_param c = parse_param_after c (parse_base_type c)

let parse_global c =
  let loc = loc c in
  let base = parse_base_type c in
  let base = if accept c Token.STAR then Tptr base else base in
  let name = expect_ident c in
  if accept c Token.LPAREN then begin
    let rec more acc =
      if accept c Token.COMMA then more (parse_param c :: acc)
      else List.rev acc
    in
    let params =
      match c.tok with
      | Token.RPAREN -> []
      | Token.KW_VOID -> (
          (* "f(void)" takes no parameter *)
          bump c;
          match c.tok with
          | Token.RPAREN -> []
          | _ -> more [ parse_param_after c Tvoid ])
      | _ -> more [ parse_param c ]
    in
    expect c Token.RPAREN;
    expect c Token.LBRACE;
    let body = parse_block_items c in
    expect c Token.RBRACE;
    Gfunc { f_ret = base; f_name = name; f_params = params; f_body = body;
            f_loc = loc }
  end
  else begin
    let typ =
      match parse_dims c with [] -> base | dims -> apply_dims base dims
    in
    let init = if accept c Token.ASSIGN then Some (parse_expr c) else None in
    expect c Token.SEMI;
    Gvar (typ, name, init)
  end

(** Parse a full Mini-C translation unit from a source string.  A unit
    that defines no function cannot have [main]: it is rejected at its end
    of input, the one location such a file has. *)
let parse_string ?(file = "<string>") src =
  let c = cursor ~file src in
  let rec loop acc =
    if c.tok = Token.EOF then List.rev acc
    else loop (parse_global c :: acc)
  in
  let prog = { globals = loop [] } in
  if functions prog = [] then fail c "program has no 'main' function";
  prog

(** Parse a single expression (used by tests and the CLI). *)
let expr_of_string src =
  let c = cursor ~file:"<expr>" src in
  let e = parse_expr c in
  if c.tok <> Token.EOF then fail c "trailing tokens after expression";
  e
