(** Simulated-time and traffic accounting.  The categories are exactly the
    stacked components of the paper's Figure 3, plus the coherence-check
    overhead of Figure 4. *)

type category =
  | Cpu_time  (** host computation *)
  | Mem_transfer  (** CPU <-> GPU transfers the host waited on *)
  | Gpu_alloc
  | Gpu_free
  | Async_wait  (** host blocked on asynchronous GPU work *)
  | Result_comp  (** kernel-verification output comparison *)
  | Check_overhead  (** coherence runtime checks *)
  | Fault_recovery
      (** resilience work: retry backoff, checksum re-verification,
          checkpointing, recovery validation *)

val all_categories : category list
val category_name : category -> string

(** Dense index of a category into the per-category totals array; covers
    [0 .. num_categories - 1] in [all_categories] order. *)
val category_index : category -> int

val num_categories : int

type t = {
  times : float array;  (** per-category totals, indexed by [category_index] *)
  mutable bytes_h2d : int;
  mutable bytes_d2h : int;
  mutable transfers_h2d : int;
  mutable transfers_d2h : int;
  mutable kernel_launches : int;
  mutable checks : int;
  mutable faults_injected : int;  (** device faults injected by the plan *)
  mutable host_clock : float;  (** simulated wall clock of the host thread *)
}

val create : unit -> t
val reset : t -> unit

(** Charge [dt] seconds of host time to a category and advance the clock.
    Accounting only: no observer sees it.  Code outside gpusim charges a
    device through {!Device.charge}, which also reports the charge to the
    device's observer. *)
val charge : t -> category -> float -> unit

val time_of : t -> category -> float
val total_time : t -> float
val total_bytes : t -> int
val record_h2d : t -> int -> unit
val record_d2h : t -> int -> unit
val pp : Format.formatter -> t -> unit
