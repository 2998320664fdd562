(** Typed flat buffers shared by the host and the simulated device.

    A Mini-C array variable maps to one buffer; coherence is tracked at this
    whole-buffer granularity by default, as in the paper (§III-B). *)

type t = Fbuf of float array | Ibuf of int array

val length : t -> int

(** Size in simulated bytes (double = 8, int = 4). *)
val bytes : t -> int

val create_float : int -> t
val create_int : int -> t
val copy : t -> t

(** Copy all of [src] into [dst]; both must have the same shape.
    @raise Invalid_argument on shape mismatch. *)
val blit : src:t -> dst:t -> unit

(** Copy the element range [lo, lo+len) of [src] into the same range of
    [dst] (subarray transfers like [update host(a[0:n])]). *)
val blit_range : src:t -> dst:t -> lo:int -> len:int -> unit

val get_float : t -> int -> float
val get_int : t -> int -> int
val set_float : t -> int -> float -> unit
val set_int : t -> int -> int -> unit

(** Maximum absolute elementwise difference; buffers must share shape. *)
val max_abs_diff : t -> t -> float

(** The one result-comparison rule (§III-A): does [value] match its
    [reference]?  Equal values match: NaN with NaN, an infinity with the
    same infinity, 0.0 with -0.0.  Any other pair holding a NaN or an
    infinity is a mismatch.  Of two finite values, a reference whose
    magnitude is below [min_value] (the paper's [minValueToCheck],
    default 0) is not checked; otherwise [|reference - value|] must not
    exceed [margin * max 1 |reference|].  A value inside the §III-C
    application bound [(lo, hi)] is accepted whatever its reference. *)
val matches :
  ?min_value:float -> ?bound:float * float -> margin:float ->
  reference:float -> float -> bool

(** Elementwise {!matches} of two buffers of one shape: the first five
    indices that do not match, and how many do not.
    @raise Invalid_argument on a shape mismatch. *)
val compare :
  ?min_value:float -> ?bound:float * float -> margin:float -> reference:t ->
  t -> int list * int

(** Flip one bit of element [idx] (fault injection: a transient device
    memory error).  Floats are flipped in their IEEE-754 bit pattern. *)
val flip_bit : t -> idx:int -> bit:int -> unit

(** Order-sensitive FNV-1a checksum of the element range [lo, lo+len)
    (whole buffer by default); used for transfer verification. *)
val checksum : ?range:int * int -> t -> int64

(** Bitwise equality: the same kind and length, and every element the
    same bits, as {!merge_diff} compares them.  A NaN equals a NaN of the
    same bits, and [-0.0] differs from [0.0]. *)
val equal : t -> t -> bool

(** Last-writer merge for sharded kernels: every element of [src] that
    differs (bitwise) from [reference] — the pre-launch snapshot — is copied
    into [dst].  All three buffers must share shape. *)
val merge_diff : reference:t -> src:t -> dst:t -> unit
