(** Interpreter for translated programs: executes host code natively,
    drives the {!Gpusim} device for data movement and kernels, and (when
    enabled) the {!Coherence} runtime for the paper's memory-transfer
    verification.

    With an armed {!Gpusim.Fault_plan} the interpreter is a resilient
    runtime: injected device faults surface as typed errors and are
    handled per the {!Resilience.policy} — bounded retry, checksum-verified
    re-transfer, checkpointed kernel re-execution validated against the
    sequential reference, and CPU fallback of the original sequential
    region. *)

type outcome = {
  ctx : Eval.ctx;  (** final host state *)
  device : Gpusim.Device.t;
  devset : Gpusim.Device_set.t;  (** the device set [device] is primary of *)
  coherence : Coherence.t;
  tprog : Codegen.Tprog.t;
  site_execs : (int, int) Hashtbl.t;  (** transfer-site id -> executions *)
  sites :
    (int, Codegen.Tprog.site * string * Codegen.Tprog.xdir) Hashtbl.t;
      (** executed transfer sites with their variable and direction *)
  resilience : Resilience.stats;  (** fault-recovery accounting *)
  imbalance : Obs.Imbalance.t option;
      (** shard-level cost attribution of every sharded launch
          (multi-device runs only) *)
}

val reports : outcome -> Coherence.report list
val metrics : outcome -> Gpusim.Metrics.t

(** Final contents of host array [name] (by root).
    @raise Value.Runtime_error when absent. *)
val host_array : outcome -> string -> Gpusim.Buf.t

val host_scalar : outcome -> string -> Value.scalar

(** Forward one device event to a trace: a [Charge] becomes a trace
    charge, a [Timeline] event a [Device] leaf span, both tagged with
    [dev] when given; [Xfer] and [Mem] are the ledger's and ignored.  The
    trace observer of {!run} and of kernel verification. *)
val trace_event : Obs.Trace.t -> ?dev:int -> Gpusim.Device.event -> unit

(** Execute a translated program.  [coherence] enables the §III-B runtime
    (meaningful on instrumented programs); [engine] selects the
    execution engine — {!Engine.Compiled} (default) runs closure-compiled
    kernel bodies (cached per kernel content) and host statements in
    mirror mode, {!Engine.Tree} walks the AST; results are bit-identical,
    and recovery validation and CPU fallback stay on the tree walker under
    either engine.  Every kernel launch is one {!Kernel_exec} session: its
    start, the engine's one runner called once owning every ordinal (a
    whole launch, priced by {!Gpusim.Device.launch}) or once per shard (a
    sharded launch, each shard priced by its measured work), then its
    commit; [granularity]
    picks whole-array (default, as the paper) or interval tracking;
    [trace] records the execution timeline; [seed] drives the
    deterministic jitter and fault streams; [plan] arms device faults;
    [resilience] picks the recovery policy (default {!Resilience.Off}:
    faults propagate as {!Gpusim.Device.Device_fault}).

    [devices] sizes the simulated device set (default 1); [schedule] picks
    how [parallel loop] iteration spaces split across members (default
    {!Gpusim.Device_set.Block}).  Every size runs one runtime path: it
    broadcasts allocations and uploads to the alive members, shards
    parallel kernels across them when there are two or more, lazily
    peer-syncs kernel inputs, and — under a recovering policy — fails a
    dying member's shards over to survivors, validating every recovery
    against the sequential reference.  A one-member run differs only in
    what it emits: untagged charges and timeline leaves, no per-member
    transfer leaves, no [imbalance] log, [copyout] (not [gather]) ledger
    causes, and losing its device degrades to host mode without counting
    a dropped member.

    [obs] and [ledger] observe the run through one {!Gpusim.Device.observe}
    subscription per member: its charges and timeline events go to [obs]
    (via {!trace_event}; tagged with the member ordinal on a multi-member
    set), its transfers and allocations to [ledger].  [obs], when given,
    receives the run as a span tree stamped by the simulated clock — a
    "run" phase span with one child span per kernel launch / transfer /
    alloc / free / wait / check, [Recovery] leaves for every resilience
    action, [Device] leaves for timeline events (with [trace]), and one
    charge event per {!Gpusim.Device.charge} (so {!Obs.Profile} totals
    conserve exactly).  [ledger], when given, records every DMA transfer
    (cause-attributed per {!Obs.Ledger.cause}, with per-member redundancy
    read from the coherence lattice when [coherence] is on) and every
    device alloc/free, byte-conserving against the metrics accumulators.
    Both are pure observation: attaching either changes no output, [ops]
    count or simulated time.  [audit], when given, records every
    coherence status transition (a direct call from the coherence
    runtime, not a device event).

    [kcache], when given, is a shared content-keyed kernel-closure store
    ({!Compile.store}): compiled-engine runs of *different translations*
    (the saturate search loop's edited program variants, a session's
    iterations) reuse each other's compiled kernels whenever the kernel body is unchanged —
    visible as [engine_compile_hits] in the [obs] counters.
    @raise Resilience.Unrecovered when the policy's budget is exhausted. *)
val run :
  ?coherence:bool -> ?engine:Engine.t ->
  ?granularity:Coherence.granularity -> ?seed:int ->
  ?trace:bool -> ?plan:Gpusim.Fault_plan.t ->
  ?resilience:Resilience.policy -> ?devices:int ->
  ?schedule:Gpusim.Device_set.schedule -> ?obs:Obs.Trace.t ->
  ?ledger:Obs.Ledger.t -> ?audit:Obs.Audit.t -> ?kcache:Compile.store ->
  Codegen.Tprog.t -> outcome
