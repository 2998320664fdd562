(** Interpreter for translated programs: executes host code natively,
    drives the {!Gpusim} device for data movement and kernels, and (on an
    instrumented program) the {!Coherence} runtime for the paper's
    memory-transfer verification.

    With an armed {!Gpusim.Fault_plan} the interpreter is a resilient
    runtime: injected device faults surface as typed errors and are
    handled per the {!Resilience.policy} — bounded retry, checksum-verified
    re-transfer, checkpointed kernel re-execution validated against the
    sequential reference, and CPU fallback of the original sequential
    region. *)

(** How a run executes; {!default} holds the defaults. *)
type config = {
  engine : Engine.t;
      (** {!Engine.Compiled} runs closure-compiled kernel bodies (each
          compiled once per run) and host statements in mirror mode;
          {!Engine.Tree} walks the AST.  Results are bit-identical, and
          recovery validation and CPU fallback stay on the tree walker
          under either engine. *)
  granularity : Coherence.granularity;
      (** whole-array ([Coarse], as the paper) or interval tracking *)
  seed : int;  (** drives the deterministic jitter and fault streams *)
  timeline : bool;  (** record each member's execution timeline *)
  plan : Gpusim.Fault_plan.t option;  (** arms device faults *)
  resilience : Resilience.policy;
      (** the recovery policy; under {!Resilience.Off} faults propagate as
          {!Gpusim.Device.Device_fault} *)
  devices : int;  (** size of the simulated device set *)
  schedule : Gpusim.Device_set.schedule;
      (** how [parallel loop] iteration spaces split across members *)
}

(** Compiled engine, coarse tracking, seed 42, no timeline, no faults,
    policy [Off], one device, block schedule. *)
val default : config

(** What watches a run.  Each observer is pure: attaching any of them
    changes no output, [ops] count or simulated time. *)
type observers = {
  trace : Obs.Trace.t option;
      (** receives the run as a span tree stamped by the simulated clock:
          a "run" phase span with one child span per kernel launch /
          transfer / alloc / free / wait / check, [Recovery] leaves for
          every resilience action, [Device] leaves for timeline events
          (with [timeline]), and one charge event per
          {!Gpusim.Device.charge} (so {!Obs.Profile} totals conserve
          exactly) *)
  ledger : Obs.Ledger.t option;
      (** records every DMA transfer (cause-attributed per
          {!Obs.Ledger.cause}, with per-member redundancy read from the
          coherence lattice on an instrumented program) and every device
          alloc/free, byte-conserving against the metrics accumulators *)
  audit : Obs.Audit.t option;
      (** records every coherence status transition (a direct call from
          the coherence runtime, not a device event) *)
}

val detached : observers

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
  compiles : int;
      (** kernels the compiled engine compiled (0 under the tree walker):
          a trace's [engine_compiles] counter *)
  compile_hits : int;
      (** runner calls that found their kernel compiled: a trace's
          [engine_compile_hits] counter *)
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
    trace observer of {!exec} and of kernel verification. *)
val trace_event : Obs.Trace.t -> ?dev:int -> Gpusim.Device.event -> unit

(** Execute a translated program under [config], watched by [observers].
    The §III-B coherence runtime runs exactly when the program carries its
    checks (its [instrumented] flag, which {!Codegen.Checkgen.instrument}
    sets).  Every kernel launch is one {!Kernel_exec} session: its start,
    the engine's one runner called once owning every ordinal (a whole
    launch, priced by {!Gpusim.Device.launch}) or once per shard (a
    sharded launch, each shard priced by its measured work), then its
    commit.

    Every device-set size runs one runtime path: it broadcasts allocations
    and uploads to the alive members, shards parallel kernels across them
    when there are two or more, lazily peer-syncs kernel inputs, and —
    under a recovering policy — fails a dying member's shards over to
    survivors, validating every recovery against the sequential
    reference.  A one-member run differs only in what it emits: untagged
    charges and timeline leaves, no per-member transfer leaves, no
    [imbalance] log, [copyout] (not [gather]) ledger causes, and losing
    its device degrades to host mode without counting a dropped member.

    [trace] and [ledger] observe the run through one
    {!Gpusim.Device.observe} subscription per member: its charges and
    timeline events go to [trace] (via {!trace_event}; tagged with the
    member ordinal on a multi-member set), its transfers and allocations
    to [ledger].
    @raise Resilience.Unrecovered when the policy's budget is exhausted.
    @raise Invalid_argument when [config.devices < 1]. *)
val exec : config -> observers -> Codegen.Tprog.t -> outcome

(** {!exec} with labels, for the benchmark harness in [perfbench/], which
    only a change to the benchmark may edit; the next such change moves
    it to {!exec} and deletes this wrapper, [kcache] and
    {!Compile.create_store}.  [kcache] is ignored: every run compiles its
    own kernels once.  [coherence], when given, must agree with the
    program's [instrumented] flag.
    @raise Invalid_argument when it does not. *)
val run :
  ?coherence:bool -> ?engine:Engine.t -> ?seed:int -> ?devices:int ->
  ?obs:Obs.Trace.t -> ?ledger:Obs.Ledger.t -> ?kcache:Compile.store ->
  Codegen.Tprog.t -> outcome
