(** Translated-program IR: the output of the OpenARC translation pass.

    A translated program mirrors the host control flow of the input Mini-C
    program, with compute regions outlined into {!kernel}s and OpenACC data
    semantics lowered to explicit device operations: allocation, transfers,
    launches, waits, and (when instrumentation is enabled) coherence runtime
    checks. *)

open Minic
open Analysis

type device = Cpu | Gpu

val device_name : device -> string

(** Coherence status of one buffer on one device (§III-B). *)
type status = Not_stale | May_stale | Stale

val status_name : status -> string

type xdir = H2D | D2H

(** A static program point performing a device operation; reports refer to
    sites so the user can trace a message back to the input directive. *)
type site = {
  site_id : int;  (** numbered from 1 per translation *)
  site_label : string;  (** e.g. ["update0.host(b)"], naming the root *)
  site_var : string;
      (** the name its clause gives: the array root, or a pointer to it;
          clause edits address this name *)
  site_sid : int;  (** [sid] of the originating source statement *)
  site_loc : Loc.t;
}

type xfer = {
  x_var : string;
  x_dir : xdir;
  x_lo : Ast.expr option;  (** subarray lower bound, whole array if absent *)
  x_len : Ast.expr option;
  x_async : Ast.expr option;
  x_site : site;
}

type check =
  | Check_read of string * device
  | Check_write of string * device
  | Reset_status of string * device * status

(** How an unsynchronized shared scalar misbehaves in the simulated GPU:
    an [Active] race corrupts kernel outputs (each thread reads the
    kernel-entry value); a [Latent] race is hidden by backend register
    promotion and never alters outputs (§IV-B). *)
type raced_kind = Race_active | Race_latent

(** How a scalar of the kernel body is realized on the device. *)
type scalar_class =
  | Sc_private  (** fresh per thread, committed from the last iteration *)
  | Sc_firstprivate
  | Sc_reduction of Ast.redop
  | Sc_raced of raced_kind

type kloop = {
  kl_var : string;
  kl_init : Ast.expr;
  kl_cond : Ast.expr;
  kl_step : Ast.stmt option;
}

type kernel = {
  k_id : int;
  k_name : string;  (** [<function>_kernel<N>], as OpenARC names them *)
  k_sid : int;  (** source compute-directive statement *)
  k_loc : Loc.t;
  k_loop : kloop option;  (** [None]: straight-line body run by one thread *)
  k_body : Ast.block;  (** the region statements: a loop's body if looped *)
  k_source : Ast.stmt;
      (** the original source statement (a loop kernel's [for]); kernel
          verification executes it as the sequential reference *)
  k_inputs : string list;
      (** The kernel's interface, what it takes from the host: each name
          [k_source] uses where none of the kernel's own declarations is
          in scope (the engines' scoping; loop header and array extents
          included), once, the latest first occurrence first, the header
          walked first.  Launches and verification's sequential runs bind
          these in this order; a pointer is listed, not its roots. *)
  k_header_inputs : string list;
      (** those a loop header uses (a suffix): what a space pass binds *)
  k_globals : string list;  (** globals the kernel's callees name *)
  k_scalars : (string * scalar_class) list;
  k_arrays_read : Varset.t;
      (** resolved roots read through the interface, header included *)
  k_arrays_written : Varset.t;
  k_induction : Varset.t;  (** loop induction variables (always private) *)
  k_ops_per_iter : int;
  k_async : Ast.expr option;
  k_dims : Ast.expr option * Ast.expr option * Ast.expr option;
      (** (num_gangs, num_workers, vector_length) *)
  k_has_private_data : bool;  (** Table II: "contains private data" *)
  k_has_reduction : bool;  (** Table II: "contains reduction" *)
  k_seq : bool;
}

type tstmt = {
  tid : int;
      (** numbered from 1 per translation; instrumentation numbers its
          checks above the translation's largest *)
  tkind : tkind;
  tloc : Loc.t;
  tsid : int;  (** sid of the source statement this op was generated from *)
}

and tkind =
  | Thost of Ast.stmt  (** plain host statement (no OpenACC inside) *)
  | Tif of Ast.expr * tstmt list * tstmt list
  | Twhile of Ast.expr * tstmt list
  | Tfor of Ast.stmt option * Ast.expr option * Ast.stmt option * tstmt list
  | Tblock of tstmt list
  | Talloc of string * site
  | Tfree of string * site
  | Txfer of xfer
  | Tlaunch of int * Ast.expr option  (** kernel id, async queue *)
  | Twait of Ast.expr option
  | Tcheck of check

type t = {
  source : Ast.program;
  env : Typecheck.env;
  alias : Alias.t;
  kernels : kernel array;
  body : tstmt list;  (** translated body of [main] *)
  tracked : Varset.t;  (** arrays under coherence tracking *)
  instrumented : bool;
      (** the body carries the §III-B checks: false after translation,
          true after {!Checkgen.instrument}; the runtime drives the
          coherence lattice exactly when it is set *)
}

(** {1 Access} *)

val kernel : t -> int -> kernel
val find_kernel : t -> string -> kernel option
val raced_scalars : kernel -> (string * raced_kind) list

(** All arrays a kernel touches. *)
val kernel_arrays : kernel -> Varset.t

(** {1 Kernel-body normalization hooks} *)

(** Normalized bounds of a unit-stride kernel loop: [Some (lo, hi)] with
    [hi] exclusive when the header has the shape [for (v = lo; v < hi;
    v++)] (or [<=], folded into an exclusive bound). *)
val loop_bounds : kloop -> (Ast.expr * Ast.expr) option

(** Same normalization for an inner sequential [for] of a kernel body:
    [Some (var, lo, hi)] when the statement is [for (var = lo; var < hi;
    var++)] ([<=] folded into an exclusive bound, unit step). *)
val for_bounds :
  Ast.stmt option -> Ast.expr option -> Ast.stmt option ->
  (string * Ast.expr * Ast.expr) option

(** {1 Traversal} *)

val iter_tstmts : (tstmt -> unit) -> tstmt list -> unit
val iter_tstmt : (tstmt -> unit) -> tstmt -> unit
val iter : t -> (tstmt -> unit) -> unit

(** Rebuild the body bottom-up; [f] maps each statement (children already
    rewritten) to a replacement list. *)
val expand_tstmts : (tstmt -> tstmt list) -> tstmt list -> tstmt list

val expand_tstmt : (tstmt -> tstmt list) -> tstmt -> tstmt list
val count_checks : t -> int
val xfer_sites : t -> site list
