(** Dense bit vectors over a numbered set of names — the fact domain of
    {!Dataflow}.  Bit [i] stands for the [i]-th name of an {!index}, in
    {!Varset} order; a vector of width [w] is its [words w] words of
    [Sys.int_size] bits, bit [i] under [mask i] in word [word i], and bits
    past the width are clear. *)

type t = private int array

(** {1 Name numbering} *)

type index

(** Number the names of a set in {!Varset} order. *)
val index : Varset.t -> index

(** Number of names. *)
val width : index -> int

(** Bit of a name, if the index has it. *)
val find : index -> string -> int option

(** {1 Vectors} *)

(** Words of a [width]-bit vector. *)
val words : int -> int

(** The word that holds bit [i]. *)
val word : int -> int

(** Bit [i]'s mask within its {!word}. *)
val mask : int -> int

(** All-zero vector of [width] bits. *)
val create : int -> t

(** All-one vector of [width] bits. *)
val full : int -> t

(** Set a bit in place. *)
val add : t -> int -> unit

(** The bits of a set's names.  @raise Not_found on a name outside the
    index. *)
val of_varset : index -> Varset.t -> t

(** {!of_varset} per element; the empty sets share one zero vector, which
    must not be updated. *)
val of_varsets : index -> Varset.t array -> t array
