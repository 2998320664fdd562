(** Lexical tokens of Mini-C. *)

type t =
  | INT_LIT of int
  | FLOAT_LIT of float
  | IDENT of string
  | KW_INT | KW_FLOAT | KW_DOUBLE | KW_VOID
  | KW_IF | KW_ELSE | KW_WHILE | KW_FOR | KW_RETURN | KW_BREAK | KW_CONTINUE
  | PLUS | MINUS | STAR | SLASH | PERCENT
  | LT | LE | GT | GE | EQEQ | NE
  | AMPAMP | BARBAR | BANG
  | ASSIGN | PLUSEQ | MINUSEQ | STAREQ | SLASHEQ
  | PLUSPLUS | MINUSMINUS
  | LPAREN | RPAREN | LBRACE | RBRACE | LBRACKET | RBRACKET
  | COMMA | SEMI | QUESTION | COLON
  | PRAGMA  (** [#pragma]: a directive's words follow *)
  | PRAGMA_END  (** the end of a directive's line: its end of input *)
  | EOF

let to_string = function
  | INT_LIT n -> string_of_int n
  | FLOAT_LIT f -> string_of_float f
  | IDENT s -> s
  | KW_INT -> "int"
  | KW_FLOAT -> "float"
  | KW_DOUBLE -> "double"
  | KW_VOID -> "void"
  | KW_IF -> "if"
  | KW_ELSE -> "else"
  | KW_WHILE -> "while"
  | KW_FOR -> "for"
  | KW_RETURN -> "return"
  | KW_BREAK -> "break"
  | KW_CONTINUE -> "continue"
  | PLUS -> "+"
  | MINUS -> "-"
  | STAR -> "*"
  | SLASH -> "/"
  | PERCENT -> "%"
  | LT -> "<"
  | LE -> "<="
  | GT -> ">"
  | GE -> ">="
  | EQEQ -> "=="
  | NE -> "!="
  | AMPAMP -> "&&"
  | BARBAR -> "||"
  | BANG -> "!"
  | ASSIGN -> "="
  | PLUSEQ -> "+="
  | MINUSEQ -> "-="
  | STAREQ -> "*="
  | SLASHEQ -> "/="
  | PLUSPLUS -> "++"
  | MINUSMINUS -> "--"
  | LPAREN -> "("
  | RPAREN -> ")"
  | LBRACE -> "{"
  | RBRACE -> "}"
  | LBRACKET -> "["
  | RBRACKET -> "]"
  | COMMA -> ","
  | SEMI -> ";"
  | QUESTION -> "?"
  | COLON -> ":"
  | PRAGMA -> "#pragma"
  | PRAGMA_END | EOF -> "<eof>"
