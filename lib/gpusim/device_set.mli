(** A fleet of simulated devices behind one scheduler.

    Each member owns its memory space, streams, timeline, metrics and fault
    gates; the set splits [parallel loop] iteration spaces across alive
    members block- or cyclic-wise.  Device 0 is the {e primary}: its metrics
    object is the host clock.  The one-member set is the runtime's
    single-device case. *)

type schedule = Block | Cyclic

val schedule_name : schedule -> string
val schedule_of_string : string -> (schedule, string) result

type t = {
  devices : Device.t array;
  schedule : schedule;
  base_plan : Fault_plan.t option;
      (** the un-partitioned plan, kept for event reporting *)
}

(** Create [n] devices.  Device 0 keeps the seed's own RNG stream.  With
    [n = 1] the device is armed with [plan] itself, so its injected events
    land on the caller's plan as they fire; with [n > 1] the plan is
    partitioned by [#DEV] selector ({!Fault_plan.partition}) and
    {!flush_events} folds the members' events back into it. *)
val create :
  ?seed:int -> ?trace:bool -> ?plan:Fault_plan.t -> ?schedule:schedule ->
  int -> t

val size : t -> int
val primary : t -> Device.t
val device : t -> int -> Device.t

(** Ordinals of members still on the bus, ascending. *)
val alive_ids : t -> int list

val num_alive : t -> int
val all_lost : t -> bool
val first_alive : t -> Device.t option

(** Fold every member's injected fault events (time-ordered) and loss state
    back into the base plan, so multi-device runs report like single-device
    ones.  Idempotent. *)
val flush_events : t -> unit

(** Per-member accumulated [(compute, transfer)] seconds by ordinal
    (kernel/wait vs PCIe categories of each member's own accumulator). *)
val member_times : t -> (float * float) array

(** Participant index owning iteration ordinal [i] of a [total]-iteration
    loop split across [parts] participants. *)
val owner : schedule -> parts:int -> total:int -> int -> int

(** A shard: [count] ascending ordinals from [first], [stride] apart —
    a block split's contiguous chunk, a cyclic split's round-robin share,
    or a whole space. *)
type shard = { first : int; stride : int; count : int }

(** The shard of participant [part]: exactly the ordinals {!owner} gives
    it. *)
val shard : schedule -> parts:int -> total:int -> int -> shard

(** [iter_shard f sh] calls [f] on each ordinal of [sh], ascending. *)
val iter_shard : (int -> unit) -> shard -> unit
