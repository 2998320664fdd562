(** Simulated-time and traffic accounting.

    Every simulator action charges time to one of the categories below; the
    categories are exactly the stacked components of the paper's Figure 3,
    plus kernel-execution time (which, being asynchronous, surfaces as
    [Async_wait] when the host blocks on it). *)

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

let all_categories =
  [ Cpu_time; Mem_transfer; Gpu_alloc; Gpu_free; Async_wait; Result_comp;
    Check_overhead; Fault_recovery ]

let category_index = function
  | Cpu_time -> 0
  | Mem_transfer -> 1
  | Gpu_alloc -> 2
  | Gpu_free -> 3
  | Async_wait -> 4
  | Result_comp -> 5
  | Check_overhead -> 6
  | Fault_recovery -> 7

let num_categories = List.length all_categories

let category_name = function
  | Cpu_time -> "CPU Time"
  | Mem_transfer -> "Mem Transfer"
  | Gpu_alloc -> "GPU Mem Alloc"
  | Gpu_free -> "GPU Mem Free"
  | Async_wait -> "Async-Wait"
  | Result_comp -> "Result-Comp"
  | Check_overhead -> "Check-Overhead"
  | Fault_recovery -> "Fault-Recovery"

type t = {
  times : float array;  (** indexed by [category_index] *)
  mutable bytes_h2d : int;
  mutable bytes_d2h : int;
  mutable transfers_h2d : int;
  mutable transfers_d2h : int;
  mutable kernel_launches : int;
  mutable checks : int;
  mutable faults_injected : int;  (** device faults injected by the plan *)
  mutable host_clock : float;  (** simulated wall clock of the host thread *)
}

let create () =
  { times = Array.make num_categories 0.0;
    bytes_h2d = 0; bytes_d2h = 0; transfers_h2d = 0; transfers_d2h = 0;
    kernel_launches = 0; checks = 0; faults_injected = 0; host_clock = 0.0 }

let reset m =
  Array.fill m.times 0 num_categories 0.0;
  m.bytes_h2d <- 0; m.bytes_d2h <- 0;
  m.transfers_h2d <- 0; m.transfers_d2h <- 0;
  m.kernel_launches <- 0; m.checks <- 0; m.faults_injected <- 0;
  m.host_clock <- 0.0

(** Charge [dt] seconds of host time to [cat] and advance the host clock. *)
let charge m cat dt =
  let i = category_index cat in
  m.times.(i) <- m.times.(i) +. dt;
  m.host_clock <- m.host_clock +. dt

let time_of m cat = m.times.(category_index cat)

let total_time m = Array.fold_left ( +. ) 0.0 m.times

let total_bytes m = m.bytes_h2d + m.bytes_d2h

let record_h2d m bytes =
  m.bytes_h2d <- m.bytes_h2d + bytes;
  m.transfers_h2d <- m.transfers_h2d + 1

let record_d2h m bytes =
  m.bytes_d2h <- m.bytes_d2h + bytes;
  m.transfers_d2h <- m.transfers_d2h + 1

let pp ppf m =
  Fmt.pf ppf "@[<v>total %.6f s (%d B h2d in %d xfers, %d B d2h in %d xfers, %d launches, %d checks%s)"
    (total_time m) m.bytes_h2d m.transfers_h2d m.bytes_d2h m.transfers_d2h
    m.kernel_launches m.checks
    (if m.faults_injected > 0 then Fmt.str ", %d faults" m.faults_injected
     else "");
  List.iter
    (fun c ->
      let t = time_of m c in
      if t > 0.0 then Fmt.pf ppf "@,  %-14s %.6f s" (category_name c) t)
    all_categories;
  Fmt.pf ppf "@]"
