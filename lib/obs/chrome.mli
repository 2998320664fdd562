(** The one Chrome trace-event exporter (load in chrome://tracing or
    https://ui.perfetto.dev).

    A Chrome trace is a JSON array of event objects.  Timestamps are
    simulated microseconds with three decimals; the host lane is [tid 0].
    Device events come from each member's {!Gpusim.Timeline}, host spans
    from an observability {!Trace}, and allocated-bytes counters from a
    {!Ledger}.  Documents print with {!Pjson.to_string}, one event per
    line. *)

(** Metadata event naming process [pid] (for merged traces). *)
val process_name : pid:int -> string -> Pjson.t

(** One timeline's events as complete events of process [pid]: the
    synchronous ones on [tid 0], async stream [q] on [tid q + 1]. *)
val timeline_events : pid:int -> Gpusim.Timeline.t -> Pjson.t list

(** Counter ("C") events named ["allocated"]: each member's live
    allocated bytes after every alloc/free, on its device lane (ordinal
    + 1). *)
val counter_lanes : Ledger.t -> Pjson.t list

(** The trace of one timeline: its {!timeline_events} in process 1. *)
val of_timeline : Gpusim.Timeline.t -> Pjson.t

(** The trace of one run over the device set whose members' timelines
    are [timelines] (member 0 first).  On one device it is
    {!of_timeline}.  On several it is the host lane ([tid 0]: the
    [trace]'s closed host-side work spans — kernel, transfer, alloc/free,
    wait, check, merge — as complete events and its recovery spans as
    instant marks) and the [ledger]'s {!counter_lanes}, then member [d]'s
    lane ([tid d + 1]: every event of its timeline, stream structure
    collapsed, zero-duration faults such as device loss as instant marks
    so they stay visible at any zoom). *)
val of_run :
  trace:Trace.t option -> ledger:Ledger.t option ->
  Gpusim.Timeline.t array -> Pjson.t
