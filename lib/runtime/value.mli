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

(** {1 Array slots}: what a declaration, an array argument or a pointer
    assignment makes a name designate. *)

(** A slot for [name] designating no buffer yet: an array declared without
    an extent, or a pointer without an initializer. *)
val unbound_array : string -> slot

(** [fresh_array name ~float dims]: a slot for [name] designating a new
    zero-filled buffer of extents [dims], outermost first, flattened
    row-major. *)
val fresh_array : string -> float:bool -> int list -> slot

(** A new slot designating what [s] designates: a pointer initialized
    from [s], or an array argument bound to [s]. *)
val alias : slot -> slot

(** [rebind p s]: the pointer assignment [p = s]. *)
val rebind : slot -> slot -> unit

(** {1 Builtins} *)

(** The meaning of a builtin function on evaluated arguments; its
    constructor names its arity. *)
type builtin =
  | Nullary of (unit -> scalar)
  | Unary of (scalar -> scalar)
  | Binary of (scalar -> scalar -> scalar)

val arity : builtin -> int

exception Runtime_error of string

val error : ('a, Format.formatter, unit, 'b) format4 -> 'a

(** {1 Environments}: one binding table per environment.

    Every name maps to its global binding and the stack of its scoped
    bindings, each tagged with the depth of the scope that made it
    (globals sit at depth 0, the outermost scope — [main]'s body, a
    kernel's base — at 1).  A lookup is one probe of the table at any
    scope depth.  A scope unbinds the names it bound when it closes, by
    return or by exception; a function call hides the caller's scopes,
    so a callee sees its parameters, its own scopes and the globals. *)

type t

(** An empty environment, its outermost scope open. *)
val create : unit -> t

(** Run [f] in a fresh scope, closed when [f] returns or raises. *)
val scoped : t -> (unit -> 'a) -> 'a

(** [call env params f]: run [f] as a function body — in a fresh scope
    binding [params], in order, with every scope open at the call hidden
    until [f] returns or raises. *)
val call : t -> (string * binding) list -> (unit -> 'a) -> 'a

(** Bind a name in the innermost scope, replacing any binding the name
    has in that scope. *)
val declare : t -> string -> binding -> unit

(** Bind a global, replacing any global binding of the name. *)
val declare_global : t -> string -> binding -> unit

(** The visible binding of a name: its innermost scoped binding, unless a
    call hides it, else its global. *)
val lookup : t -> string -> binding option

(** The global binding of a name, whatever scope shadows it. *)
val global : t -> string -> binding option

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

(** [map_bindings f env] is a fresh environment that shows what [env]
    shows — each visible scoped binding and each global, replaced by
    [f name binding] — with its own table, so neither sees the other's
    later declarations (the shadow environments of kernel verification
    and recovery validation).  [f] is applied in unspecified order. *)
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
