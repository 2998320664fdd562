(** Runtime coherence tracking (§III-B).

    Each tracked array carries one status per device in
    {notstale, maystale, stale}, at whole-buffer granularity by default (as
    in the paper) or per element range in {!Fine} mode.  The inserted
    runtime calls drive the state machine and emit the
    missing / may-missing / incorrect / redundant / may-redundant reports
    the interactive optimization loop consumes. *)

type kind = Missing | May_missing | Incorrect | Redundant | May_redundant

val kind_name : kind -> string

type report = {
  r_kind : kind;
  r_var : string;
  r_site : Codegen.Tprog.site option;
      (** transfer site, when the event is a transfer *)
  r_sid : int;  (** source statement the event traces back to (-1 unknown) *)
  r_dev : Codegen.Tprog.device option;
      (** device whose copy was stale (missing reports) *)
  r_desc : string;
  r_loops : (string * int) list;
      (** enclosing host loops, outermost first (the "enclosing loop index"
          of the paper's Listing 4) *)
}

val pp_report : Format.formatter -> report -> unit

type granularity = Coarse | Fine

type dev_state = {
  mutable status : Codegen.Tprog.status;
  mutable stale_iv : Intervals.t;
  mutable may_iv : Intervals.t;
}

type var_state = {
  cpu : dev_state;
  gpu : dev_state;  (** device 0's copy; physically [gpus.(0)] *)
  gpus : dev_state array;  (** one state per device-set member *)
  mutable len : int;
}

type t = {
  granularity : granularity;
  ndevices : int;  (** device-set size; 1 = the paper's single device *)
  alive_gpus : bool array;  (** per-device liveness, updated on loss *)
  states : (string, var_state) Hashtbl.t;
  mutable reports : report list;
  mutable loop_stack : (string * int) list;
  mutable interval_ops : int;  (** fine-mode tracking work *)
  audit : Obs.Audit.t option;  (** records every status transition *)
  now : unit -> float;  (** simulated clock for audit timestamps *)
  mutable cur_op : string;  (** runtime call currently driving transitions *)
  mutable cur_point : string;  (** program point of that call *)
}

(** [audit], when given, receives one entry per observable status transition
    of the primary (device 0) lattice, stamped by [now] (default: the
    constant 0).  [devices] sizes the per-member GPU lattice (default 1). *)
val create :
  ?granularity:granularity -> ?audit:Obs.Audit.t -> ?now:(unit -> float) ->
  ?devices:int -> unit -> t

(** Record the element count of a variable (ranges whole-array events in
    fine mode). *)
val register_len : t -> string -> int -> unit

(** [get t v Gpu] is the pessimistic join (worst status) over the live
    members' copies of [v]; with one device, exactly that member's status. *)
val get : t -> string -> Codegen.Tprog.device -> Codegen.Tprog.status

(** A [Gpu] update addresses the whole device set: every live member's copy
    moves together. *)
val set : t -> string -> Codegen.Tprog.device -> Codegen.Tprog.status -> unit

(** {1 Per-device refinement} (driven by the device-set runtime) *)

(** Status of member device [d]'s copy. *)
val gpu_status : t -> string -> int -> Codegen.Tprog.status

(** Move one member device's copy. *)
val set_gpu : t -> string -> int -> Codegen.Tprog.status -> unit

(** A kernel committed [v] on exactly [devs]: their copies become fresh,
    every other live member's copy stale.  A no-op on a one-member
    lattice, which is the paper's single-device automaton. *)
val note_kernel_write : t -> string -> devs:int list -> unit

(** A runtime-initiated peer/broadcast sync refreshed [v] on [devs]. *)
val note_gpu_fresh : t -> string -> devs:int list -> unit

(** Device [d] dropped off the bus: its resident copies are gone (stale),
    and it leaves the join. *)
val on_device_lost : t -> int -> unit

(** {1 Loop context} (for report attribution) *)

val enter_loop : t -> string -> unit
val next_iteration : t -> unit
val exit_loop : t -> unit

(** {1 The inserted runtime calls} *)

val check_read :
  ?sid:int -> ?range:int * int -> t -> string -> Codegen.Tprog.device -> unit

val check_write :
  ?sid:int -> ?range:int * int -> t -> string -> Codegen.Tprog.device -> unit

val reset_status :
  t -> string -> Codegen.Tprog.device -> Codegen.Tprog.status -> unit

(** A transfer of [v] along [dir] is happening; detects incorrect/redundant/
    may-redundant transfers and refreshes the target state. *)
val on_transfer :
  ?range:int * int -> t -> string -> Codegen.Tprog.xdir ->
  site:Codegen.Tprog.site -> unit

val on_free : t -> string -> unit

val reports : t -> report list

(** Group reports per (site, kind, variable) with occurrence counts — the
    digest form for interactive display. *)
val summarize : report list -> string list
