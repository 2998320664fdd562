(** Fault-matrix sweep: fault kinds x recovery policies over a set of
    programs, asserting that every combination either recovers
    verified-correct or degrades to CPU fallback — never a silently wrong
    result. *)

type subject = {
  s_name : string;
  s_source : string;
  s_outputs : string list;  (** host variables defining correctness *)
}

type cell = {
  c_bench : string;
  c_kind : Gpusim.Fault_plan.kind;
  c_policy : string;
  c_devices : int;  (** device-set size the cell ran with (1 = classic) *)
  c_injected : int;
  c_retries : int;  (** transfer/alloc retries + checksum re-transfers *)
  c_reexecs : int;
  c_fallbacks : int;
  c_failovers : int;  (** shards re-executed on surviving devices *)
  c_verified : int;
  c_correct : bool;  (** outputs match the sequential reference *)
  c_recovered : bool;  (** run completed without an unrecovered fault *)
  c_device_lost : bool;
  c_overhead : float;  (** simulated time vs. the fault-free baseline *)
}

type t = {
  seed : int;
  cells : cell list;
  traces : (string * Gpusim.Timeline.t) list;
      (** per-cell device timelines (with [trace]), in cell order *)
}

val cell_ok : cell -> bool
val all_ok : t -> bool

(** Policies a fault kind is swept against: transient kinds pair with
    [retry] and [full]; [device-lost] needs [full]'s CPU fallback. *)
val policies_for : Gpusim.Fault_plan.kind -> Accrt.Resilience.policy list

(** Sweep [kinds] (default: all) across [subjects], injecting one
    single-shot fault per cell with the given deterministic [seed];
    [trace] records each cell's device timeline.

    Each count [n > 1] in [device_counts] (default none) additionally
    sweeps device-loss rows on an [n]-member device set: one member (the
    primary and the last, in turn) is killed at the first kernel's launch
    gate under each of the [retry] and [full] policies, so its in-flight
    shard must fail over to the survivors and re-verify. *)
val run :
  ?seed:int -> ?kinds:Gpusim.Fault_plan.kind list -> ?device_counts:int list ->
  ?trace:bool -> subject list -> t

val pp_cell : Format.formatter -> cell -> unit
val pp : Format.formatter -> t -> unit

(** The matrix document: seed, cell counts and one row per cell. *)
val json : t -> Obs.Pjson.t

(** Merged Chrome trace of every traced cell (one process per cell). *)
val trace : t -> Obs.Pjson.t
