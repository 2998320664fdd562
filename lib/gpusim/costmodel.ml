(** Analytic cost model of the simulated accelerator system.

    Stands in for the paper's testbed (Intel Xeon X5660 + NVIDIA Tesla M2090
    over PCI-e).  Absolute values are not meant to match the paper; the
    *ratios* (PCIe latency vs bandwidth, CPU vs GPU throughput, launch
    overhead) are chosen so the evaluation reproduces the paper's shapes:
    transfer-bound naive schemes blow up (Figure 1), kernel verification costs
    a few CPU-times (Figure 3), and coherence checks are noise (Figure 4). *)

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

let default =
  {
    pcie_latency = 10e-6;
    pcie_bandwidth = 8e9;
    pcie_jitter = 0.15;
    kernel_launch = 5e-6;
    gpu_parallel_width = 512.;
    gpu_op_cost = 1.2e-9;
    cpu_op_cost = 1.0e-9;
    alloc_cost = 3e-6;
    free_cost = 1.5e-6;
    alloc_byte_cost = 1e-12;
    check_cost = 8e-8;
    compare_op_cost = 6.0e-9;
  }

(** Transfer duration for [bytes] bytes; [noise] in [-1, 1] scales jitter.
    The jitter models PCI-e contention variance, the source of the paper's
    small negative overheads in Figure 4. *)
let transfer_time cm ~bytes ~noise =
  let base = cm.pcie_latency +. (float_of_int bytes /. cm.pcie_bandwidth) in
  base *. (1. +. (cm.pcie_jitter *. noise))

(** GPU kernel duration for [iterations] iterations of a body costing
    [ops_per_iter] scalar operations.  [width] caps the concurrent lanes
    (a kernel launched with explicit num_gangs/num_workers dimensions may
    use fewer lanes than the device offers). *)
let kernel_time ?width cm ~iterations ~ops_per_iter =
  let iters = float_of_int (max 1 iterations) in
  let device_width =
    match width with
    | Some w when w > 0 -> Float.min cm.gpu_parallel_width (float_of_int w)
    | _ -> cm.gpu_parallel_width
  in
  let lanes = Float.min device_width iters in
  cm.kernel_launch
  +. (iters *. float_of_int (max 1 ops_per_iter) *. cm.gpu_op_cost /. lanes)

let cpu_time cm ~ops = float_of_int (max 0 ops) *. cm.cpu_op_cost

let alloc_time cm ~bytes =
  cm.alloc_cost +. (float_of_int bytes *. cm.alloc_byte_cost)

let free_time cm ~bytes = cm.free_cost +. (float_of_int bytes *. 0.25 *. cm.alloc_byte_cost)

let compare_time cm ~elems = float_of_int elems *. cm.compare_op_cost
