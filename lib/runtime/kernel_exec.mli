(** GPU-kernel execution on the simulated device.

    Iterations of the parallel loop play the role of GPU threads: arrays are
    shared in device memory; private/firstprivate scalars and induction
    variables are fresh per iteration; reduction scalars accumulate into
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

(** All names appearing in a statement list (declared ones included),
    each once, the latest first occurrence first. *)
val names_of_block : Minic.Ast.stmt list -> string list

(** All names appearing in a kernel (loop header first, then body), in the
    deterministic order both engines bind kernel-entry state in.  Walks
    the kernel in place: it allocates no statement id. *)
val kernel_names : Codegen.Tprog.kernel -> string list

(** {1 Launch sessions}

    Every launch is one session: {!start}, then the engine's runner —
    {!run_shard} for the tree walker, [Compile.run_shard] for the compiled
    engine — called once owning every ordinal (a whole launch) or once per
    shard of a launch split across a device set, then {!commit}.  A runner
    handles all three kernel shapes: a parallel loop runs one thread per
    owned iteration ordinal; a straight-line kernel is one thread at
    ordinal 0 running the body; a [seq] loop is one thread at ordinal 0
    running the whole loop over persistent scalar cells.  It stages every
    thread's committed scalars — a parallel thread's reduction partials
    tagged with their ordinal, every other committed scalar's latest
    writer (a [seq] loop's reductions included) — and the loop driver's
    exit value, and publishes them only when the call completes, so a
    dying device's in-flight contribution is discarded and reductions
    combine in exactly the one-device tree order whatever the split or the
    failover passes. *)

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

(** The thread count of a sharded launch: a parallel loop's trip count,
    sized by a driver-only pass against [device]'s buffers (the first
    executing member's, so a header reading device data sizes the space
    the shards step); 1 for the other shapes. *)
val total_iterations : session -> Gpusim.Device.t -> int

(** What a launch on [device] binds a host binding to: an array to the
    device's buffer, a scalar to a private copy of its value at launch.
    @raise Gpusim.Device.Device_error naming the kernel and its location
    when the array is not allocated on [device]. *)
val device_binding :
  session -> Gpusim.Device.t -> Value.binding -> Value.binding

(** The program's global variables named by the functions a kernel calls,
    directly or through one another; empty when the program has none. *)
val callee_globals : Minic.Ast.program -> Codegen.Tprog.kernel -> string list

(** [bind_globals s device env globals]: bind each of [globals] as a
    global of the kernel environment [env], as {!device_binding} binds the
    kernel's own names, so a function the kernel calls sees them. *)
val bind_globals :
  session -> Gpusim.Device.t -> Value.t -> string list -> unit

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

(** A clean completion: merge the staged results into the session (the
    highest-ordinal writer wins). *)
val publish : session -> staging -> unit

(** The tree walker's runner: execute the ordinals selected by [owns] on
    [device], against its buffers, and publish their results.  Returns
    the iteration count the launch is priced by — the executed ordinals,
    the [seq] trip count, or 1.  [weights] (sized {!total_iterations})
    receives the measured interpreted-op count of every executed ordinal,
    for shard-level cost attribution.
    @raise Gpusim.Device.Device_fault if the device dies mid-call (its
    staged results are discarded). *)
val run_shard :
  session -> ?weights:int array -> Gpusim.Device.t -> owns:(int -> bool) ->
  int

(** Commit the published results to the host: a parallel reduction
    combines its partials in ordinal (tree) order with the entry value,
    an ordinal published twice (a shard re-executed after its scrub)
    counting once, at its latest publication; every other committed
    scalar, and the loop variable, takes its latest value. *)
val commit : session -> unit
