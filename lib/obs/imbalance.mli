(** Shard-level cost attribution for sharded kernel launches, and a
    schedule analyzer that re-costs the recorded iteration-space weights
    under the alternative block/cyclic split.

    The records are plain data: the runtime records measured weights and
    charged durations here, and {!analyze} answers "would the other
    schedule beat this one?" from those records alone (noise-free,
    deterministic), splitting them with {!Gpusim.Device_set.owner}. *)

type shard = {
  sh_part : int;  (** shard index within the launch *)
  sh_dev : int;  (** member ordinal that finally executed it *)
  sh_iters : int;  (** iterations it owned *)
  sh_ops : int;  (** measured interpreted operations of those iterations *)
  sh_time : float;  (** charged duration (priced without jitter) *)
  sh_failover : bool;  (** executed by a survivor after device loss *)
}

type launch = {
  l_kernel : string;
  l_loc : string;
  l_parts : int;
  l_total : int;  (** iteration-space size *)
  l_weights : int array;  (** measured ops per iteration ordinal *)
  l_unit : float;  (** seconds per measured operation (work-conserving) *)
  l_overhead : float;  (** fixed per-launch cost (launch latency) *)
  l_shards : shard array;  (** indexed by shard/part *)
  l_barrier : float;  (** host idle charged at the completion barrier *)
  l_wall : float;  (** slowest member's busy time this launch *)
  l_merge : float;  (** modeled reduction-merge cost *)
  l_merge_bytes : int;
}

type t = {
  i_devices : int;
  i_schedule : string;  (** "block" | "cyclic" — the split actually run *)
  mutable launches_rev : launch list;
  mutable gather_time : float;  (** modeled D2H gather cost *)
  mutable gather_bytes : int;
}

val create : devices:int -> schedule:string -> t
val record : t -> launch -> unit
val note_gather : t -> bytes:int -> time:float -> unit

(** Launches in record order. *)
val launches : t -> launch list

(** The most loaded member's share of the measured work under
    [schedule] — the schedule-sensitive component of a launch's
    completion time (verdicts compare exactly this; the fixed launch
    overhead cannot be moved by a schedule change). *)
val predict_work : launch -> schedule:Gpusim.Device_set.schedule -> float

(** Noise-free completion time of a launch re-costed under [schedule]:
    fixed overhead plus the most loaded member's share of the measured
    work. *)
val predict : launch -> schedule:Gpusim.Device_set.schedule -> float

type report = {
  r_kernel : string;
  r_loc : string;
  r_launches : int;
  r_imbalance : float;  (** max/mean shard cost, launch-summed *)
  r_idle : float;  (** total idle-at-barrier *)
  r_merge : float;  (** total modeled merge cost *)
  r_merge_share : float;  (** merge / (wall + merge) *)
  r_wall : float;  (** total slowest-member busy time *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;  (** exact percentiles over shard durations *)
  r_failovers : int;
  r_pred_block : float;
  r_pred_cyclic : float;  (** re-costed totals under each schedule *)
  r_recommended : string;
  r_verdict : string;  (** ["keep"] or ["switch"] *)
  r_gain : float;  (** predicted relative saving of the recommendation *)
}

type analysis = {
  a_devices : int;
  a_schedule : string;
  a_kernels : report list;  (** first-launch order *)
  a_gather_time : float;
  a_gather_bytes : int;
  a_pred_block : float;
  a_pred_cyclic : float;
  a_recommended : string;
  a_gain : float;  (** program-level relative saving vs the run schedule *)
}

val analyze : t -> analysis

val schema : string
val version : int

(** Canonical JSON (schema [openarc.obs.imbalance], version 1);
    deterministic byte-for-byte from the recorded launches. *)
val json : name:string -> seed:int -> analysis -> Pjson.t

val pp : Format.formatter -> analysis -> unit
