(** The simulated GPU device: memory space, async streams, transfer engine,
    and cost accounting.

    Data movement happens functionally at submission time; asynchrony is
    modeled in the timing domain (streams with completion times, the host
    blocking at {!wait}).  All timing flows into {!Metrics} and, when
    tracing is enabled, the {!Timeline}.

    {b Observation.}  A device has at most one observer ({!observe}),
    which sees one {!event} stream in the order things happen: every
    charge, every recorded timeline event, every completed transfer and
    every alloc/free bookkeeping update.  Within one operation the order
    is fixed: an alloc reports [Mem], [Timeline], [Charge]; a free the
    same (only [Mem] on a lost device); an upload or download [Charge],
    [Timeline], [Xfer] (async ones charge only the submit); a launch
    [Charge], [Timeline]; a wait [Timeline], [Charge]; an injected fault
    its [Timeline] mark, then any [Charge] it costs.

    Code outside gpusim charges a device through {!charge}, never
    {!Metrics.charge} directly: only {!charge}'s charges reach the
    observer, so only they count toward a trace's (and [Obs.Profile]'s)
    conservation against the metrics totals. *)

type stream = { mutable avail : float }

(** One completed DMA transfer, reported with exactly the bytes the
    metrics accumulator recorded, so an observer conserves bytes by
    construction.  Injected transfer faults that abort the copy report
    none. *)
type xfer_info = {
  x_name : string;  (** buffer name *)
  x_h2d : bool;
  x_bytes : int;
  x_start : float;
  x_duration : float;
}

(** One allocation event: [m_delta] is the signed byte delta (positive
    alloc, negative free), [m_allocated] the live total after it. *)
type mem_info = {
  m_name : string;
  m_delta : int;
  m_allocated : int;
  m_time : float;
}

(** One observed device event. *)
type event =
  | Charge of Metrics.category * float
      (** [dt] seconds charged to a category (the host clock advanced) *)
  | Timeline of Timeline.event
      (** an event the timeline recorded (only with [trace]) *)
  | Xfer of xfer_info  (** a completed upload/download *)
  | Mem of mem_info
      (** alloc/free bookkeeping (frees report even on a lost device) *)

type t = {
  id : int;  (** ordinal within a {!Device_set} (0 when standalone) *)
  cm : Costmodel.t;
  metrics : Metrics.t;
  timeline : Timeline.t;
  mem : (string, Buf.t) Hashtbl.t;
  streams : (int, stream) Hashtbl.t;
  rng : Rng.t;  (** explicit stream for deterministic PCIe jitter *)
  plan : Fault_plan.t;  (** armed device faults (empty by default) *)
  mutable allocated_bytes : int;
  mutable peak_bytes : int;
  mutable observer : (event -> unit) option;  (** see {!observe} *)
}

(** Install the device's observer, replacing any earlier one.  Observing
    is pure: it changes no charge, RNG draw or functional effect. *)
val observe : t -> (event -> unit) -> unit

(** Charge [dt] seconds to a category (advancing the host clock) and
    report it to the observer as [Charge].  The event is built only when
    an observer is attached. *)
val charge : t -> Metrics.category -> float -> unit

(** Host-side misuse (double alloc, unallocated buffer): a programming
    error, not a recoverable fault. *)
exception Device_error of string

(** A device fault injected by the plan: the typed error surface the
    resilient runtime recovers from (retry, re-execution, CPU fallback). *)
type fault_info = {
  f_kind : Fault_plan.kind;
  f_target : string;  (** buffer or kernel name *)
  f_op : string;  (** operation underway: "alloc", "upload", "launch", ... *)
}

exception Device_fault of fault_info

val create :
  ?id:int -> ?seed:int -> ?trace:bool -> ?plan:Fault_plan.t -> unit -> t

(** Has the device {e not} been lost to a [Device_lost] fault? *)
val alive : t -> bool

val is_allocated : t -> string -> bool

(** @raise Device_error when the buffer is not allocated.
    @raise Device_fault when the device has been lost. *)
val buffer : t -> string -> Buf.t

(** Allocate a device buffer shaped like [like] (zeroed).
    @raise Device_error on double allocation.
    @raise Device_fault on injected OOM or device loss. *)
val alloc : t -> string -> like:Buf.t -> unit

val free : t -> string -> unit
val free_all : t -> unit

(** Host-to-device copy into buffer [name]; [range = (lo, len)] restricts to
    a subarray; [async] enqueues on a stream (timing only); [label] is the
    timeline attribution. *)
val upload :
  t -> string -> host:Buf.t -> ?range:int * int -> ?async:int ->
  ?label:string -> unit -> unit

val download :
  t -> string -> host:Buf.t -> ?range:int * int -> ?async:int ->
  ?label:string -> unit -> unit

(** Launch-time fault gate, called by the runtime {e before} the kernel's
    functional execution.
    @raise Device_fault on injected launch failure, timeout, or device
    loss. *)
val begin_launch : t -> label:string -> unit

(** Account for a kernel execution (the functional work is done by the
    runtime's kernel executor), returning the charged duration.  [width]
    caps parallel lanes; [time] overrides the cost-model base duration —
    the sharded launch path prices each member's shard by its measured
    share of the interpreted work; [jitter] (default [true]) applies the
    run-to-run variance factor — sharded launches disable it so measured
    wall time matches the schedule analyzer's noise-free re-costing. *)
val launch_timed :
  t -> iterations:int -> ops_per_iter:int -> ?width:int -> ?time:float ->
  ?jitter:bool -> ?async:int -> ?label:string -> unit -> float

(** {!launch_timed} for callers that don't consume the duration; the RNG
    draw sequence is identical. *)
val launch :
  t -> iterations:int -> ops_per_iter:int -> ?width:int -> ?async:int ->
  ?label:string -> unit -> unit

(** Push stream [q]'s completion time out by [dt] simulated seconds (the
    completion barrier of a sharded async launch).  No-op on a lost
    device or for [dt <= 0]. *)
val delay_stream : t -> int -> float -> unit

(** ECC scrub of the named device buffers after a kernel execution:
    injects any armed [Bit_flip] faults (flipping a real bit in device
    memory) and returns them as {e detected} errors — the simulator's
    model of ECC double-error detection.  Never raises. *)
val scrub : t -> string list -> fault_info list

(** Block the host until stream [q] (or all streams when [None]) drains. *)
val wait : t -> int option -> unit
