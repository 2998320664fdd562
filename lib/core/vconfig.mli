(** Kernel-verification configuration (§III-A, §III-C): OpenARC's
    [verificationOptions] — kernel selection (with complement), error
    margin, [minValueToCheck] — plus the application-knowledge hooks of
    §III-C (per-variable value bounds and debug assertions). *)

type assertion = {
  a_name : string;
  a_check : Gpusim.Buf.t -> bool;  (** applied to a GPU-produced array *)
  a_var : string;
}

type bound = {
  b_var : string;
  b_min : float;
  b_max : float;  (** differences within the bound are acceptable *)
}

type t = {
  kernels : string list;  (** empty = all kernels *)
  complement : bool;  (** verify every kernel {e except} those listed *)
  error_margin : float;  (** relative error tolerance *)
  min_value : float;  (** paper's [minValueToCheck] *)
  bounds : bound list;
  assertions : assertion list;
}

val default : t

(** Does the configuration select kernel [name]? *)
val selects : t -> string -> bool

(** [(b_min, b_max)] of the bound declared for [var], if any: the
    [bound] of {!Gpusim.Buf.matches}. *)
val bound_for : t -> string -> (float * float) option

(** Parse "verificationOptions=complement=0,kernels=main_kernel0" style
    strings (also accepts the spec without the prefix).  Options are
    [complement=0|1], [kernels=a,b,...] (after it, bare words are more
    kernel names), [errorMargin=X] (finite, not negative) and
    [minValueToCheck=X] (finite).
    @raise Failure on an unknown option, a bare word before [kernels=], a
    value that is not a finite number, a negative [errorMargin] or a
    [complement] other than 0 or 1; the message names the option and the
    offending part. *)
val of_string : string -> t

(** Read the configuration from the [OPENARC_VERIFICATION] environment
    variable; {!default} when unset.
    @raise Failure as {!of_string}, the message prefixed with the
    variable's name. *)
val from_env : unit -> t
