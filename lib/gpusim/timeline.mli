(** Execution timeline: every device-visible event with its simulated start
    time, duration and *source-level* attribution (transfer site labels,
    kernel names) — the traceability artifact the paper's Table I contrasts
    with low-level profilers.  The timeline holds events only;
    [Obs.Chrome] exports them as Chrome traces. *)

type kind =
  | Ev_transfer of { var : string; h2d : bool; bytes : int }
  | Ev_kernel of { name : string; iterations : int }
  | Ev_alloc of string
  | Ev_free of string
  | Ev_wait
  | Ev_check
  | Ev_fault of string  (** injected device fault (fault-kind name) *)

type event = {
  ev_kind : kind;
  ev_label : string;
  ev_start : float;  (** simulated seconds *)
  ev_duration : float;
  ev_stream : int option;
}

type t

val create : ?enabled:bool -> unit -> t

(** Append an event and return it; [label] formats its label.  A timeline
    created with [~enabled:false] records nothing, never calls [label] and
    returns [None].  Observers see recorded events through
    {!Device.observe}, not here. *)
val record :
  t -> ?stream:int -> kind:kind -> label:(unit -> string) -> start:float ->
  duration:float -> unit -> event option

val events : t -> event list
val count : t -> int
val kind_name : kind -> string

(** Total simulated time per event kind, sorted by kind name. *)
val summary : t -> (string * float) list

val pp : Format.formatter -> t -> unit
