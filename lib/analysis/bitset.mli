(** Dense bit vectors over a numbered set of names — the fact domain of
    {!Dataflow}.  Bit [i] stands for the [i]-th name of an {!index}, in
    {!Varset} order; a vector of width [w] takes [⌈w / Sys.int_size⌉]
    words.  The [_into] operations and {!gen_kill} update [dst] in place;
    every operand of one call has the same width. *)

type t

(** {1 Name numbering} *)

type index

(** Number the names of a set in {!Varset} order. *)
val index : Varset.t -> index

(** Number of names. *)
val width : index -> int

(** Bit of a name, if the index has it. *)
val find : index -> string -> int option

(** {1 Vectors} *)

(** All-zero vector of [width] bits. *)
val create : int -> t

(** All-one vector of [width] bits. *)
val full : int -> t

val copy : t -> t
val mem : t -> int -> bool

(** Is the name's bit set?  A name outside the index is in no vector. *)
val mem_name : index -> t -> string -> bool

(** Set a bit in place. *)
val add : t -> int -> unit

val equal : t -> t -> bool
val blit : src:t -> dst:t -> unit

(** [dst := dst ∪ src]. *)
val union_into : dst:t -> t -> unit

(** [dst := dst ∩ src]. *)
val inter_into : dst:t -> t -> unit

(** [dst := gen ∪ (src − kill)]. *)
val gen_kill : dst:t -> gen:t -> kill:t -> t -> unit

(** The bits of a set's names.  @raise Not_found on a name outside the
    index. *)
val of_varset : index -> Varset.t -> t

(** {!of_varset} per element; the empty sets share one zero vector, which
    must not be updated. *)
val of_varsets : index -> Varset.t array -> t array
