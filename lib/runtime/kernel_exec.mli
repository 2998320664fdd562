(** GPU-kernel execution on the simulated device.

    Iterations of the parallel loop play the role of GPU threads: arrays are
    shared in device memory; private/firstprivate scalars and induction
    variables are fresh per iteration; reduction scalars accumulate into
    per-thread partials combined in pairwise tree order (hence float results
    differ from the sequential reference in the last bits); an {e active}
    raced scalar re-reads the kernel-entry value in every iteration with the
    last writer winning; a {e latent} raced scalar is register-promoted and
    behaves privately (§IV-B's undetectable errors). *)

type result = { iterations : int; ops : int }

(** Identity element of a reduction, typed like the host initial value. *)
val identity : Minic.Ast.redop -> Value.scalar -> Value.scalar

val combine : Minic.Ast.redop -> Value.scalar -> Value.scalar -> Value.scalar

(** Pairwise (tree-order) combination of per-thread partials. *)
val tree_reduce : Minic.Ast.redop -> Value.scalar list -> Value.scalar option

(** All names appearing in a statement list (declared ones included),
    each once, the latest first occurrence first. *)
val names_of_block : Minic.Ast.stmt list -> string list

(** All names appearing in a kernel (loop header first, then body), in the
    deterministic order both engines bind kernel-entry state in.  Walks
    the kernel in place: it allocates no statement id. *)
val kernel_names : Codegen.Tprog.kernel -> string list

(** Execute a kernel against the device, reading initial scalars from — and
    committing results to — the host environment of the given context. *)
val run : Eval.ctx -> Gpusim.Device.t -> Codegen.Tprog.kernel -> result

(** {1 Multi-device (sharded) execution}

    A parallel-loop kernel is split across a device set: every shard steps
    the full loop driver but executes only the iteration ordinals it owns,
    against its own device's buffers.  Scalar results are staged per shard,
    published only on clean completion (a dying device's in-flight
    contribution is discarded), and ordinal-tagged so reductions combine in
    exactly the single-device tree order regardless of the split or of
    failover re-execution passes. *)

(** Can this kernel be split? (parallel loop, not [seq], not straight-line) *)
val shardable : Codegen.Tprog.kernel -> bool

type session

(** Sizes the iteration space with a device-free driver-only pass.
    @raise Invalid_argument when the kernel is not {!shardable}. *)
val start : Eval.ctx -> Codegen.Tprog.kernel -> session

val total_iterations : session -> int
val kernel : session -> Codegen.Tprog.kernel

(** The host context the session commits to. *)
val host : session -> Eval.ctx

(** Kernel-entry value of a host scalar the kernel names. *)
val entry : session -> string -> Value.scalar option

(** One shard's staged scalar results.  Shard runners of either engine
    stage every thread's scalars and {!publish} only on clean completion,
    so both engines commit through the same ordinal-tagged merge. *)
type staging

val staging : session -> staging

(** [stage s sg ~ordinal v x]: iteration [ordinal] left [x] in thread
    scalar [v].  Reduction partials accumulate; private/raced scalars and
    outer induction variables keep their latest writer; other names are
    not committed. *)
val stage : session -> staging -> ordinal:int -> string -> Value.scalar -> unit

val publish : session -> staging -> unit

(** Execute the ordinals selected by [owns] on [device].  Returns the
    number of iterations executed.  [weights] (sized
    [total_iterations]) receives the measured interpreted-op count of
    every executed ordinal, for shard-level cost attribution.
    @raise Gpusim.Device.Device_fault if the device dies mid-shard (its
    staged results are discarded). *)
val run_shard :
  session -> ?weights:int array -> Gpusim.Device.t -> owns:(int -> bool) ->
  int

(** Commit merged scalar results to the host environment. *)
val commit : session -> unit
