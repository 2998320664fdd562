(** Recovery policies for injected device faults (see {!Interp} for the
    resilient execution engine that interprets them).

    A policy bounds how hard the runtime fights a device fault before
    giving up: transient-fault retries with exponential backoff,
    checksum-verified re-transfers, checkpointed kernel re-execution, and
    CPU fallback to the original sequential region.  [validate] runs the
    §III-A comparator over every recovery, so recovered runs are verified
    correct, never assumed correct. *)

type policy = {
  p_name : string;
  max_retries : int;  (** per-operation retry budget *)
  backoff : float;  (** base backoff delay (simulated s), doubled per retry *)
  checksum : bool;  (** end-to-end checksum verification of transfers *)
  reexec : bool;  (** checkpoint kernels and re-execute on fault *)
  cpu_fallback : bool;  (** degrade to the sequential region / host mode *)
  validate : bool;  (** compare recoveries against the sequential reference *)
}

(** Propagate every fault (the baseline). *)
val none : policy

(** Retry + re-transfer + re-execute, but no CPU fallback: a device loss
    or an exhausted retry budget raises {!Unrecovered}. *)
val retry : policy

(** Everything [retry] does, plus CPU fallback and host mode after device
    loss: no fault is fatal. *)
val full : policy

val of_string : string -> (policy, string) result

(** One recovery decision taken by the runtime. *)
type entry = {
  l_fault : Gpusim.Fault_plan.kind;
  l_target : string;
  l_op : string;
  l_action : string;  (** "retry", "re-transfer", "re-execute", ... *)
  l_ok : bool;
}

type stats = {
  mutable retries : int;  (** transfer/allocation retries *)
  mutable retransfers : int;  (** checksum-mismatch re-transfers *)
  mutable reexecs : int;  (** kernel re-executions from checkpoint *)
  mutable fallbacks : int;  (** kernels degraded to the sequential region *)
  mutable failovers : int;
      (** shards of a lost device re-executed on surviving devices *)
  mutable devices_lost : int;  (** device-set members lost to [Device_lost] *)
  mutable verified : int;  (** recoveries validated against the reference *)
  mutable unrecovered : int;
  mutable device_lost : bool;  (** the run degraded to host mode *)
  mutable log : entry list;  (** reversed; use {!log_entries} *)
}

val fresh_stats : unit -> stats
val log_entries : stats -> entry list
val record :
  stats -> fault:Gpusim.Device.fault_info -> action:string -> ok:bool -> unit
val recoveries : stats -> int

(** A fault the active policy could not mask: the run's results are not
    trustworthy past this point. *)
exception Unrecovered of Gpusim.Device.fault_info

(** {1 Per-run fault/recovery report} *)

val pp_entry : Format.formatter -> entry -> unit

val pp_report :
  seed:int -> plan:Gpusim.Fault_plan.t -> policy:policy ->
  metrics:Gpusim.Metrics.t -> Format.formatter -> stats -> unit

val report_json :
  seed:int -> plan:Gpusim.Fault_plan.t -> policy:policy ->
  metrics:Gpusim.Metrics.t -> stats -> string
