(** Runtime values and environments for the Mini-C interpreters.

    Scalars are mutable cells; arrays are flattened {!Gpusim.Buf} buffers
    held in mutable slots (with a shape for multi-dimensional arrays) so
    that pointer assignment rebinds the slot — the pointer-swap idiom of
    BACKPROP/LUD.  A slot's [root] is the name of the buffer it currently
    designates: the key for device memory and coherence tracking. *)

type scalar = Int of int | Flt of float

val to_float : scalar -> float
val to_int : scalar -> int
val truthy : scalar -> bool

type cell = { mutable v : scalar }

type slot = {
  mutable buf : Gpusim.Buf.t option;
  mutable root : string;
  mutable shape : int array;
      (** dimensions, outermost first; [[||]] until materialized *)
}

type binding = Scalar of cell | Array of slot

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Environments}: a stack of frames over a global frame. *)

(** A frame: a table from names to bindings, one binding per name.  Each
    entry stores its key's hash (any deterministic string hash), so
    {!lookup} hashes a name once for the whole frame stack, probes every
    frame with that hash and compares keys with [String.equal] only on a
    hash match.  Iteration order is unspecified and must never be
    observed: only name-keyed code iterates frames ({!map_bindings}, the
    kernel runners' per-thread commits). *)
module Frame : sig
  type t

  (** An empty frame sized for about [n] names; it grows as needed. *)
  val create : int -> t

  (** Bind a name, replacing any binding it had in this frame. *)
  val replace : t -> string -> binding -> unit

  val find_opt : t -> string -> binding option

  (** Visit every binding once, in unspecified order. *)
  val iter : (string -> binding -> unit) -> t -> unit

  val length : t -> int

  (** Empty the frame and restore its initial size. *)
  val reset : t -> unit
end

type frame = Frame.t

type t = { globals : frame; mutable frames : frame list }

val create : unit -> t
val push : t -> unit
val pop : t -> unit

(** Run [f] in a fresh scope: a pooled frame, empty on entry, popped on
    exit whether [f] returns or raises. *)
val scoped : t -> (unit -> 'a) -> 'a

val declare : t -> string -> binding -> unit
val declare_global : t -> string -> binding -> unit

(** The innermost binding of a name: the frames from the top of the stack
    down, then the globals. *)
val lookup : t -> string -> binding option

(** {!lookup} without the option: a hit allocates nothing.
    @raise Runtime_error ["unbound variable 'x'"] when unbound. *)
val lookup_exn : t -> string -> binding

val scalar_cell : t -> string -> cell
val array_slot : t -> string -> slot

(** The (flattened) buffer behind an array/pointer name.
    @raise Runtime_error when not materialized. *)
val array_buf : t -> string -> Gpusim.Buf.t

(** Root name of the buffer currently designated by a name. *)
val root_of : t -> string -> string

val get_scalar : t -> string -> scalar

(** Shape of an array binding ([[|len|]] when it was never given one). *)
val shape_of : slot -> int array

(** [map_bindings f env] is a fresh environment with [env]'s frame
    structure, each binding replaced by [f name binding] (the shadow
    environments of kernel verification and recovery validation). *)
val map_bindings : (string -> binding -> binding) -> t -> t

(** {1 Result comparison} *)

(** One output that differs from its reference. *)
type mismatch = {
  m_what : string;  (** array or scalar name *)
  m_count : int;  (** elements that do not match (1 for a scalar) *)
  m_max_diff : float;  (** nan when the two cannot be compared *)
  m_first_indices : int list;  (** up to five; empty for a scalar *)
}

(** Named results of a finished run: each name with its binding, [None]
    when unbound. *)
type outputs = (string * binding option) list

(** [outputs env names]: the bindings of [names] in [env], all a result
    comparison keeps of a run. *)
val outputs : t -> string list -> outputs

(** [compare_outputs ~margin ~reference got]: every output of [reference]
    whose namesake in [got] does not match it under
    {!Gpusim.Buf.matches} at [margin], in [reference]'s order.  A name
    unbound on either side, an unmaterialized array, arrays of different
    lengths, or an array against a scalar is a mismatch of one element. *)
val compare_outputs :
  margin:float -> reference:outputs -> outputs -> mismatch list
