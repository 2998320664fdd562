(** Hand-written lexer for Mini-C.

    The parser pulls one token at a time with {!next}, and asks for the
    location of the last one only when it keeps or reports it.  A
    [#pragma] opens a directive: the lexer returns {!Token.PRAGMA}, lexes
    the directive's words where they stand, joining backslash
    continuations, and closes it with {!Token.PRAGMA_END} at the end of its
    line. *)

type lexed = { tok : Token.t; loc : Loc.t }

type state = {
  src : string;
  file : string;
  mutable pos : int;
  mutable line : int;
  mutable bol : int;  (** offset of the beginning of the current line *)
  mutable in_pragma : bool;  (** inside a directive: its line ends it *)
  mutable tok_line : int;  (** where the last token returned starts *)
  mutable tok_col : int;
}

let make ~file src =
  { src; file; pos = 0; line = 1; bol = 0; in_pragma = false; tok_line = 1;
    tok_col = 1 }

let loc_of st = Loc.make ~file:st.file ~line:st.line ~col:(st.pos - st.bol + 1)

let loc st = Loc.make ~file:st.file ~line:st.tok_line ~col:st.tok_col

let eof st = st.pos >= String.length st.src

let peek st = if eof st then '\000' else st.src.[st.pos]

let peek2 st =
  if st.pos + 1 >= String.length st.src then '\000' else st.src.[st.pos + 1]

let advance st =
  if not (eof st) then begin
    if st.src.[st.pos] = '\n' then begin
      st.line <- st.line + 1;
      st.bol <- st.pos + 1
    end;
    st.pos <- st.pos + 1
  end

let is_digit c = c >= '0' && c <= '9'
let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_alnum c = is_alpha c || is_digit c

(* A directive continues past a '\' that ends its line ("\\\n", "\\\r\n"
   or "\\\r"): the lexer skips it as a blank. *)
let at_continuation st =
  st.in_pragma && peek st = '\\' && (peek2 st = '\n' || peek2 st = '\r')

let skip_continuation st =
  advance st;
  if peek st = '\r' then advance st;
  if peek st = '\n' then advance st

(* The end of the current directive's line, or of the input. *)
let at_line_end st = eof st || (st.in_pragma && peek st = '\n')

(* Skip blanks and comments; stops before '#' so pragmas are tokenized, and
   inside a directive before the newline that ends it.  There a line
   comment runs to the end of the directive, and a block comment must close
   before it. *)
let rec skip_trivia st =
  match peek st with
  | ' ' | '\t' | '\r' ->
      advance st;
      skip_trivia st
  | '\n' when not st.in_pragma ->
      advance st;
      skip_trivia st
  | '\\' when at_continuation st ->
      skip_continuation st;
      skip_trivia st
  | '/' when peek2 st = '/' ->
      while (not (eof st)) && peek st <> '\n' do
        if at_continuation st then skip_continuation st else advance st
      done;
      skip_trivia st
  | '/' when peek2 st = '*' ->
      let start = loc_of st in
      advance st; advance st;
      let rec close () =
        if at_line_end st then Loc.error start "unterminated comment"
        else if peek st = '*' && peek2 st = '/' then begin advance st; advance st end
        else begin
          if at_continuation st then skip_continuation st else advance st;
          close ()
        end
      in
      close ();
      skip_trivia st
  | _ -> ()

let lex_number st =
  let start = st.pos in
  while is_digit (peek st) do advance st done;
  let is_float = ref false in
  if peek st = '.' && is_digit (peek2 st) then begin
    is_float := true;
    advance st;
    while is_digit (peek st) do advance st done
  end;
  if peek st = 'e' || peek st = 'E' then begin
    is_float := true;
    advance st;
    if peek st = '+' || peek st = '-' then advance st;
    if not (is_digit (peek st)) then Loc.error (loc_of st) "malformed exponent";
    while is_digit (peek st) do advance st done
  end;
  let text = String.sub st.src start (st.pos - start) in
  if !is_float then Token.FLOAT_LIT (float_of_string text)
  else
    match int_of_string_opt text with
    | Some n -> Token.INT_LIT n
    | None -> Loc.error (loc st) "integer literal %s is out of range" text

let keyword_of = function
  | "int" -> Some Token.KW_INT
  | "float" -> Some Token.KW_FLOAT
  | "double" -> Some Token.KW_DOUBLE
  | "void" -> Some Token.KW_VOID
  | "if" -> Some Token.KW_IF
  | "else" -> Some Token.KW_ELSE
  | "while" -> Some Token.KW_WHILE
  | "for" -> Some Token.KW_FOR
  | "return" -> Some Token.KW_RETURN
  | "break" -> Some Token.KW_BREAK
  | "continue" -> Some Token.KW_CONTINUE
  | _ -> None

let lex_ident st =
  let start = st.pos in
  while is_alnum (peek st) do advance st done;
  let text = String.sub st.src start (st.pos - start) in
  match keyword_of text with Some kw -> kw | None -> Token.IDENT text

(* "#", blanks, then "pragma": the directive's words follow. *)
let lex_pragma st =
  advance st (* '#' *);
  st.in_pragma <- true;
  let rec blanks () =
    match peek st with
    | ' ' | '\t' | '\r' -> advance st; blanks ()
    | '\\' when at_continuation st -> skip_continuation st; blanks ()
    | _ -> ()
  in
  blanks ();
  let word = "pragma" in
  let n = String.length word in
  (* The word ends at a non-identifier character: [#pragmaacc] is no
     pragma. *)
  if
    st.pos + n <= String.length st.src
    && String.sub st.src st.pos n = word
    && not (st.pos + n < String.length st.src && is_alnum st.src.[st.pos + n])
  then begin
    for _ = 1 to n do advance st done;
    Token.PRAGMA
  end
  else Loc.error (loc st) "expected 'pragma' after '#'"

let lex_operator st =
  let two tok = advance st; advance st; tok in
  let one tok = advance st; tok in
  match (peek st, peek2 st) with
  | '+', '+' -> two Token.PLUSPLUS
  | '+', '=' -> two Token.PLUSEQ
  | '-', '-' -> two Token.MINUSMINUS
  | '-', '=' -> two Token.MINUSEQ
  | '*', '=' -> two Token.STAREQ
  | '/', '=' -> two Token.SLASHEQ
  | '<', '=' -> two Token.LE
  | '>', '=' -> two Token.GE
  | '=', '=' -> two Token.EQEQ
  | '!', '=' -> two Token.NE
  | '&', '&' -> two Token.AMPAMP
  | '|', '|' -> two Token.BARBAR
  | '+', _ -> one Token.PLUS
  | '-', _ -> one Token.MINUS
  | '*', _ -> one Token.STAR
  | '/', _ -> one Token.SLASH
  | '%', _ -> one Token.PERCENT
  | '<', _ -> one Token.LT
  | '>', _ -> one Token.GT
  | '=', _ -> one Token.ASSIGN
  | '!', _ -> one Token.BANG
  | '(', _ -> one Token.LPAREN
  | ')', _ -> one Token.RPAREN
  | '{', _ -> one Token.LBRACE
  | '}', _ -> one Token.RBRACE
  | '[', _ -> one Token.LBRACKET
  | ']', _ -> one Token.RBRACKET
  | ',', _ -> one Token.COMMA
  | ';', _ -> one Token.SEMI
  | '?', _ -> one Token.QUESTION
  | ':', _ -> one Token.COLON
  | c, _ -> Loc.error (loc st) "unexpected character %C" c

let next st =
  skip_trivia st;
  st.tok_line <- st.line;
  st.tok_col <- st.pos - st.bol + 1;
  if st.in_pragma && at_line_end st then begin
    st.in_pragma <- false;
    Token.PRAGMA_END
  end
  else if eof st then Token.EOF
  else
    let c = peek st in
    if c = '#' then lex_pragma st
    else if is_digit c then lex_number st
    else if is_alpha c then lex_ident st
    else lex_operator st

(** Tokenize an entire source string. The result always ends with [EOF]. *)
let tokenize ~file src =
  let st = make ~file src in
  let rec loop acc =
    let tok = next st in
    let acc = { tok; loc = loc st } :: acc in
    match tok with Token.EOF -> List.rev acc | _ -> loop acc
  in
  loop []
