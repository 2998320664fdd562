(** Analytic cost model of the simulated accelerator system (stands in for
    the paper's Xeon X5660 + Tesla M2090 testbed; see DESIGN.md §5). *)

type t = {
  pcie_latency : float;  (** seconds per transfer, fixed part *)
  pcie_bandwidth : float;  (** bytes per second *)
  pcie_jitter : float;  (** relative amplitude of transfer-time noise *)
  kernel_launch : float;  (** seconds per kernel launch *)
  gpu_parallel_width : float;  (** effective concurrent lanes *)
  gpu_op_cost : float;  (** seconds per scalar operation on one GPU lane *)
  cpu_op_cost : float;  (** seconds per scalar operation on the host *)
  alloc_cost : float;  (** seconds per device allocation *)
  free_cost : float;  (** seconds per device free *)
  alloc_byte_cost : float;  (** seconds per byte allocated *)
  check_cost : float;  (** seconds per coherence runtime check *)
  compare_op_cost : float;  (** seconds per compared element (verification) *)
}

(** The baked-in testbed constants. *)
val default : t

(** Transfer duration for [bytes] bytes; [noise] in [-1, 1] scales the
    jitter term (PCI-e contention variance — the source of the paper's
    small negative overheads in Figure 4). *)
val transfer_time : t -> bytes:int -> noise:float -> float

(** Kernel duration for [iterations] x [ops_per_iter] scalar operations;
    [width] caps the concurrent lanes below the device width (explicit
    num_gangs/num_workers launch dimensions). *)
val kernel_time : ?width:int -> t -> iterations:int -> ops_per_iter:int -> float

val cpu_time : t -> ops:int -> float
val alloc_time : t -> bytes:int -> float
val free_time : t -> bytes:int -> float
val compare_time : t -> elems:int -> float
