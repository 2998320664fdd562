(** Execution timeline: every device-visible event with its simulated start
    time, duration and *source-level* attribution (transfer site labels,
    kernel names) — the traceability artifact the paper's Table I contrasts
    with low-level profilers.  Exports Chrome-trace JSON. *)

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

(** Append an event and return it; a timeline created with
    [~enabled:false] records nothing and returns [None].  Observers see
    recorded events through {!Device.observe}, not here. *)
val record :
  t -> ?stream:int -> kind:kind -> label:string -> start:float ->
  duration:float -> unit -> event option

val events : t -> event list
val count : t -> int
val kind_name : kind -> string

(** Total simulated time per event kind, sorted by kind name. *)
val summary : t -> (string * float) list

(** Chrome-trace event objects, one serialized JSON object per event
    ([tid] 0 = host, stream [q] = [q + 1]).  [pid] defaults to 1. *)
val chrome_events : ?pid:int -> t -> string list

(** One Chrome lane per device-set member: every event rendered onto the
    single track [tid]; zero-duration fault events (device loss) render
    as thread-scoped instant ("i") marks. *)
val chrome_device_events : ?pid:int -> tid:int -> t -> string list

(** Chrome metadata event naming process [pid] (for merged traces). *)
val chrome_process_name : pid:int -> string -> string

(** A Chrome-trace JSON document framing pre-rendered event objects:
    ["[\n"], the objects one per line (indented, comma-separated), then
    ["\n]\n"].  Every Chrome exporter goes through it. *)
val chrome_document : string list -> string

(** Chrome "trace event format" JSON (chrome://tracing, Perfetto). *)
val to_chrome_json : t -> string

(** Multi-lane Chrome-trace JSON for a device set: pre-rendered [host]
    event objects on lane [tid 0] (see [Obs.Chrome.host_lane_events]),
    then member [d]'s timeline on lane [tid d + 1]. *)
val to_chrome_json_devices : ?host:string list -> t array -> string

val pp : Format.formatter -> t -> unit
