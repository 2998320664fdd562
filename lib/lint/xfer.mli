(** Static transfer diagnostics: a compile-time abstract interpretation of
    the {notstale, maystale, stale} coherence lattice of §III-B.

    The pass analyzes the *instrumented* translated program — the same
    [check_read]/[check_write]/[reset_status] sites the runtime executes
    (placed by {!Codegen.Checkgen}, which already folds in the deadness and
    last-write analyses) — so every static verdict anchors at a site the
    runtime would report on.  Two {!Analysis.Dataflow} passes track the
    stale bits of each tracked array's CPU and GPU copies: a *may*-solve
    (union meet, over-approximate) and a *must*-solve (intersect meet,
    under-approximate; events through ambiguous pointers weaken both
    soundly).  A transfer whose target is must-fresh on every path is
    *definitely redundant*; a read whose local copy is must-stale is a
    *definitely missing* transfer — claims that hold for every execution,
    which is what the cross-check against the runtime reports asserts.

    Codes: [ACC-XFER-001] missing (error), [-002] possibly missing (info),
    [-003] incorrect (error), [-004] redundant (warning), [-005]
    may-redundant (info). *)

(** Diagnostics for one (uninstrumented) translated program, over the
    {!Codegen.Checkgen.Optimized} check placement. *)
val analyze : Codegen.Tprog.t -> Diag.t list

(** Words of facts the may- and must-solves of {!analyze} keep
    ({!Analysis.Dataflow.stored_words}). *)
val solve_words : Codegen.Tprog.t -> int
