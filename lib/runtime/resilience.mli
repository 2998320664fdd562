(** Recovery policies for injected device faults (see {!Interp} for the
    resilient execution engine that interprets them).

    A policy bounds how hard the runtime fights a device fault before
    giving up: transient-fault retries with exponential backoff,
    checksum-verified re-transfers, checkpointed kernel re-execution, and
    CPU fallback to the original sequential region.  Every recovered launch
    is checked by the §III-A comparator, so recovered runs are verified
    correct, never assumed correct. *)

(** [Off] propagates every fault (the baseline).  [Retry] retries,
    re-transfers, re-executes and fails over, validating every recovered
    launch against the sequential reference; a device loss with no member
    left or an exhausted retry budget raises {!Unrecovered}.  [Full] does
    everything [Retry] does, and instead keeps the data on the host: CPU
    fallback of the kernel, demotion of the array, host mode once no member
    is alive — no fault is fatal. *)
type policy = Off | Retry | Full

(** ["none"], ["retry"] or ["full"]. *)
val name : policy -> string

(** Parses {!name}'s names and the alias ["fallback"] for [Full]. *)
val of_string : string -> (policy, string) result

(** [Retry] or [Full]: faults are caught, transfers checksummed, launches
    checkpointed. *)
val recovers : policy -> bool

(** [Full]: an exhausted budget or a lost set degrades to the host. *)
val falls_back : policy -> bool

(** Per-operation retry budget (3) of a recovering policy. *)
val max_retries : int

(** Simulated delay before retry [attempt + 1]: 1e-4 s, doubled per
    attempt. *)
val backoff : int -> float

(** What the runtime does with one caught device fault. *)
type decision =
  | Member_lost
      (** drop the member and continue on the survivors; with none left,
          host mode under [Full], {!Unrecovered} under [Retry] *)
  | Reattempt
      (** retry the data operation or re-execute the launch, after
          {!backoff} *)
  | Exhausted
      (** the budget is spent: under [Full] demote the array (data) or run
          the kernel's sequential region (launch); under [Retry]
          {!Unrecovered} *)
  | Propagate  (** re-raise the fault *)

(** The one recovery rule, asked by every gate that catches a device fault
    (allocation, transfer including a checksum mismatch, the CPU
    fallback's re-upload, launch) on its [attempt]-th retry (0 first):

    {v
    caught fault              Off        Retry, Full
    device-lost               Propagate  Member_lost
    transient, attempt < 3    Propagate  Reattempt
    transient, attempt >= 3   Propagate  Exhausted
    v} *)
val decide : policy -> Gpusim.Fault_plan.kind -> attempt:int -> decision

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
