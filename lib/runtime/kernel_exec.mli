(** GPU-kernel execution on the simulated device.

    Iterations of the parallel loop play the role of GPU threads: arrays are
    shared in device memory; private/firstprivate scalars and induction
    variables are fresh per iteration (a parallel loop's driver too: each
    thread starts from its ordinal's value in the launch's iteration space,
    and a body that writes it changes no other thread's value); reduction
    scalars accumulate into
    per-thread partials combined in pairwise tree order (hence float results
    differ from the sequential reference in the last bits); an {e active}
    raced scalar re-reads the kernel-entry value in every iteration with the
    last writer winning; a {e latent} raced scalar is register-promoted and
    behaves privately (§IV-B's undetectable errors). *)

(** Identity element of a reduction, typed like the host initial value. *)
val identity : Minic.Ast.redop -> Value.scalar -> Value.scalar

val combine : Minic.Ast.redop -> Value.scalar -> Value.scalar -> Value.scalar

(** Pairwise (tree-order) combination of per-thread partials. *)
val tree_reduce : Minic.Ast.redop -> Value.scalar list -> Value.scalar option

(** {1 Launch sessions}

    Every launch is one session: {!start}; its iteration space, computed
    once per launch by the engine's own header code — {!space} for the
    tree walker, [Compile.space] for the compiled engine — against the
    first executing member's buffers; then the engine's runner —
    {!run_shard} for the tree walker, [Compile.run_shard] for the compiled
    engine — called once with every ordinal of the space (a whole launch)
    or once per shard of a launch split across a device set; then
    {!commit}.  A runner handles all three kernel shapes: a parallel loop
    runs one thread per given ordinal, its driver set from the space and
    its header never evaluated, so every device count and schedule runs
    the same threads; a straight-line kernel is one thread at ordinal 0
    running the body; a [seq] loop is one thread at ordinal 0 running the
    whole loop, header included, over persistent scalar cells.  It stages
    every thread's committed scalars — a parallel thread's reduction
    partials tagged with their ordinal, every other committed scalar's
    latest writer (a [seq] loop's reductions included) — and the loop
    driver's exit value, and publishes them only when the call completes,
    so a dying device's in-flight contribution is discarded and reductions
    combine in exactly the one-device tree order whatever the split or the
    failover passes.

    What a launch binds is the kernel's interface, as the translator
    recorded it in {!Codegen.Tprog.kernel}: a runner binds [k_inputs], a
    space pass [k_header_inputs], each as {!device_binding} makes it and
    in that order, and both bind [k_globals] as globals; a name the
    kernel declares is never bound.  No pass here walks the kernel. *)

(** Can this kernel be split? (parallel loop, not [seq], not straight-line) *)
val shardable : Codegen.Tprog.kernel -> bool

type session

(** Capture the kernel-entry values of the names a launch commits —
    classified scalars and the induction variables the host binds —
    without walking the kernel.  Accepts every kernel shape. *)
val start : Eval.ctx -> Codegen.Tprog.kernel -> session

val kernel : session -> Codegen.Tprog.kernel

(** The host context the session commits to. *)
val host : session -> Eval.ctx

(** {2 Iteration spaces} *)

(** A launch's iteration space: a parallel loop's driver value at every
    ordinal — an integer progression kept as its first value and stride,
    any other sequence value by value — and its exit value, fixed before
    any thread runs; one ordinal (0) and no driver for a straight-line
    kernel or a [seq] loop.  It is the launch's one header walk: the
    thread count, every shard's driver values and the exit value all come
    from it, and no other pass sizes a launch. *)
type space

(** The space of a kernel that is not a parallel loop. *)
val single : space

(** [walk_space driver ~cond ~step]: a parallel loop's space, walked by
    an engine's header code over [driver], the loop variable's cell once
    the init has set it: while [cond ()] holds, [driver]'s value is the
    next ordinal's and [step ()] advances it; its last value is the exit
    value. *)
val walk_space :
  Value.cell -> cond:(unit -> bool) -> step:(unit -> unit) -> space

(** The tree walker's space pass: a parallel loop's header, evaluated by
    {!Eval} against [device]'s buffers in an environment binding only the
    header's inputs ([k_header_inputs]); {!single} for the other
    shapes. *)
val space : session -> Gpusim.Device.t -> space

(** The space's ordinal count: a parallel loop's trip count, else 1. *)
val size : space -> int

(** Every ordinal of the space: a whole launch's shard. *)
val whole : space -> Gpusim.Device_set.shard

(** What a launch on [device] binds a host binding to: an array to the
    device's buffer, a scalar to a private copy of its value at launch.
    @raise Gpusim.Device.Device_error naming the kernel and its location
    when the array is not allocated on [device]. *)
val device_binding :
  session -> Gpusim.Device.t -> Value.binding -> Value.binding

(** [bind_globals s device env]: bind each of the kernel's [k_globals]
    as a global of the kernel environment [env], as {!device_binding}
    binds its [k_inputs], so a function the kernel calls sees them. *)
val bind_globals : session -> Gpusim.Device.t -> Value.t -> unit

(** {2 Runner support} *)

(** One runner call's threads: their cells, one per committed name — the
    classified scalars first, in [k_scalars] order — and what they
    staged. *)
type staging

val staging : session -> staging

(** The cells a runner binds the committed names to. *)
val cells : staging -> Value.cell array

(** The index in {!cells} of committed name [v], if the session commits
    it. *)
val slot : session -> string -> int option

(** [thread s sg ctx ~ordinal run]: one thread.  Resets the cells to
    their initial values (the reduction identity for a parallel
    reduction, the entry value otherwise), calls [run], records the
    interpreted ops of [ctx] it took in [weights.(ordinal)], and stages
    what it left in the cells. *)
val thread :
  session -> staging -> ?weights:int array -> Eval.ctx -> ordinal:int ->
  (unit -> unit) -> unit

(** Stage the loop driver's exit value. *)
val stage_exit : staging -> Value.scalar -> unit

(** [run_threads s sg ctx space ~shard driver run]: a parallel loop's
    threads, one {!thread} per ordinal of [shard] with [driver] set to the
    space's value at it, then the space's exit value staged.  Returns the
    ordinal count. *)
val run_threads :
  session -> staging -> ?weights:int array -> Eval.ctx -> space ->
  shard:Gpusim.Device_set.shard -> Value.cell -> (unit -> unit) -> int

(** A clean completion: merge the staged results into the session (the
    highest-ordinal writer wins). *)
val publish : session -> staging -> unit

(** The tree walker's runner: execute the ordinals of [shard] of [space]
    on [device], against its buffers, and publish their results.  Returns the
    iteration count the launch is priced by — the executed ordinals, the
    [seq] trip count, or 1.  [weights] (sized {!size}) receives the
    measured interpreted-op count of every executed ordinal, for
    shard-level cost attribution.
    @raise Gpusim.Device.Device_fault if the device dies mid-call (its
    staged results are discarded). *)
val run_shard :
  session -> space -> ?weights:int array -> Gpusim.Device.t ->
  shard:Gpusim.Device_set.shard -> int

(** Commit the published results to the host: a parallel reduction
    combines its partials in ordinal (tree) order with the entry value,
    an ordinal published twice (a shard re-executed after its scrub)
    counting once, at its latest publication; every other committed
    scalar, and the loop variable, takes its latest value. *)
val commit : session -> unit
