(** Hierarchical execution spans with source-level attribution, a
    chronological charge-event stream, monotonic counters, and a stable,
    versioned JSONL export.

    Charges are recorded in the exact order the cost accumulator applied
    them, so totals recomputed from a trace are bit-identical to the
    {!Gpusim.Metrics} totals — the conservation property {!Profile}
    asserts. *)

val schema : string
val version : int

type kind =
  | Session  (** one CLI invocation / one profiled run *)
  | Phase  (** compiler pipeline stage, or the runtime "run" phase *)
  | Region  (** a source data/compute region *)
  | Kernel  (** one kernel launch (retries included) *)
  | Transfer  (** one transfer-site execution *)
  | Alloc
  | Free
  | Wait
  | Check  (** coherence runtime check *)
  | Recovery  (** one resilience action (retry, re-transfer, fallback, ...) *)
  | Device  (** device-visible leaf imported from the {!Gpusim.Timeline} *)
  | Merge  (** one per-member reduction-merge step of a sharded kernel *)

val kind_name : kind -> string

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_kind : kind;
  sp_name : string;
  sp_loc : string option;
  sp_directive : string option;
      (** source-level directive attribution; charges under this span roll
          up to it *)
  sp_dev : int option;
      (** device-set member ordinal this span executed on; [None] for
          host-side spans and every single-device run *)
  mutable sp_attrs : (string * string) list;
  sp_start : float;  (** simulated seconds *)
  mutable sp_end : float option;
}

(** The directive charges fall to when no enclosing span carries one. *)
val host_directive : string

type charge = {
  c_span : int;  (** innermost open span, [-1] outside any span *)
  c_directive : string;
  c_category : string;  (** {!Gpusim.Metrics} category name *)
  c_dev : int option;
      (** device-set member ordinal whose accumulator took the charge;
          [None] on single-device runs (the primary is the host clock) *)
  c_dt : float;
}

type event =
  | E_begin of span
  | E_end of span * float
  | E_charge of charge

type t

(** [clock] supplies the simulated time for span boundaries (default: the
    constant 0, which keeps compile-phase spans deterministic). *)
val create : ?clock:(unit -> float) -> unit -> t

val set_clock : t -> (unit -> float) -> unit

val start_span :
  t -> kind -> string -> ?loc:string -> ?directive:string -> ?dev:int ->
  ?attrs:(string * string) list -> unit -> span

val end_span : t -> span -> unit

(** Run [f] inside a fresh span; the span is closed even on exceptions. *)
val with_span :
  t -> kind -> string -> ?loc:string -> ?directive:string -> ?dev:int ->
  ?attrs:(string * string) list -> (unit -> 'a) -> 'a

(** A pre-timed leaf span (e.g. a device timeline event), parented under
    the innermost open span. *)
val leaf :
  t -> kind -> string -> ?loc:string -> ?directive:string -> ?dev:int ->
  ?attrs:(string * string) list -> start:float -> duration:float -> unit ->
  unit

(** Directive of the nearest enclosing span carrying one, else
    {!host_directive}. *)
val current_directive : t -> string

(** Record a cost-accounting charge against the innermost open span.
    [dev] tags the charge with the device-set member ordinal that took it
    (multi-device runs only; omitted charges belong to the host clock). *)
val charge : t -> ?dev:int -> category:string -> float -> unit

val count : t -> string -> int -> unit
val incr : t -> string -> unit

(** Spans in creation order. *)
val spans : t -> span list

(** Events in chronological order. *)
val events : t -> event list

val open_spans : t -> int

(** Counters in first-use order. *)
val counters : t -> (string * int) list

(** Versioned JSONL: one [meta] header line, then [span_begin] /
    [span_end] / [charge] lines in event order, then [counter] lines. *)
val to_jsonl : t -> string

val pp : Format.formatter -> t -> unit
