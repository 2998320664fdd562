(** The one JSON value type of the toolchain, for reading and for writing.

    Every exported document — profiles, diffs, ledgers, traces, session
    records, the bench goldens — is built as a {!t} and printed by
    {!to_string} (a document) or {!to_line} (one JSONL record); readers
    such as [openarc diff-profile] parse with {!parse}.  The repo
    deliberately carries no JSON dependency.

    {b Numbers} keep their text: a parsed number is the exact digits of
    the input, and a built one is formatted once by its exporter (e.g.
    ["%.9f"] seconds), so printing never re-rounds and a document that
    is parsed and printed again comes back byte for byte.

    {b Layout.}  {!to_string} prints every value on one line, with [", "]
    between elements and [": "] after keys, except an array holding at
    least one object or array: that array prints one element per line,
    each indented two spaces per level of such arrays around it, and its
    closing bracket on a line of its own.  The document ends with a
    newline.  {!to_line} prints everything on one line and adds no
    newline.  Neither takes a layout parameter. *)

type t =
  | Null
  | Bool of bool
  | Num of string  (** the number's text, a JSON number *)
  | Str of string  (** bytes; UTF-8 when parsed *)
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

exception Bad of string

(** {1 Building} *)

(** [int n] is [n] in decimal. *)
val int : int -> t

(** [fixed d x] is [x] with [d] decimals (["%.*f"]); [Null] when [x] is
    not finite, since JSON has no NaN or infinity. *)
val fixed : int -> float -> t

(** [exp d x] is [x] in exponent notation with [d] decimals
    (["%.*e"]); [Null] when [x] is not finite. *)
val exp : int -> float -> t

(** [opt f o] is [f v] for [Some v] and [Null] for [None]. *)
val opt : ('a -> t) -> 'a option -> t

(** {1 Printing} *)

(** The document layout above, ending with a newline.  Strings escape
    ["\""], ["\\"], newline and tab as two-character escapes and every
    other byte below 0x20 as [\u00XX]; all other bytes print as they
    are. *)
val to_string : t -> string

(** One line, no newline: a JSONL record. *)
val to_line : t -> string

(** {1 Reading} *)

(** Strict JSON (RFC 8259): numbers follow JSON's grammar, [\uXXXX]
    escapes decode to UTF-8 (surrogate pairs combined, lone surrogates
    rejected), and nothing may follow the value but whitespace.
    @raise Bad on malformed input (message includes the byte offset). *)
val parse : string -> t

(** [parse_result s] is [parse s] with the error as a [result]. *)
val parse_result : string -> (t, string) result

(** Object member lookup; [None] on non-objects too. *)
val member : string -> t -> t option

(** A number's value; [None] for non-numbers and for numbers too large
    for a float. *)
val num : t -> float option

val str : t -> string option
val arr : t -> t list option

val num_exn : t -> float
val str_exn : t -> string
val arr_exn : t -> t list

(** An integer: a number written without fraction or exponent that fits
    an OCaml [int].  @raise Bad on anything else, such as [1.5] or
    [1e400]. *)
val int_exn : t -> int
