(** Hand-written lexer for Mini-C.  A [#pragma] line lexes as
    {!Token.PRAGMA}, the directive's words where they stand (backslash
    continuations joined) and {!Token.PRAGMA_END} at the end of its line. *)

type lexed = { tok : Token.t; loc : Loc.t }

type state

val make : file:string -> string -> state

(** Next token (EOF repeats at end of input).
    @raise Loc.Error on lexical errors. *)
val next : state -> Token.t

(** Where the token {!next} returned last starts. *)
val loc : state -> Loc.t

(** Tokenize an entire source string by {!next}; always ends with [EOF]. *)
val tokenize : file:string -> string -> lexed list
