(** Minimal strict JSON parser for reading back the canonical documents the
    sibling exporters emit ({!Profile.to_json} and the others; the test
    suite validates every exported document with it).  The
    repo deliberately carries no JSON dependency; this recursive-descent
    parser accepts exactly the subset those exporters produce (plus
    standard escapes) and rejects everything else. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list  (** members in document order *)

exception Bad of string

(** @raise Bad on malformed input (message includes the byte offset). *)
val parse : string -> t

(** [parse_result s] is [parse s] with the error as a [result]. *)
val parse_result : string -> (t, string) result

(** Object member lookup; [None] on non-objects too. *)
val member : string -> t -> t option

val num : t -> float option
val str : t -> string option
val arr : t -> t list option

val num_exn : t -> float
val str_exn : t -> string
val arr_exn : t -> t list
