(** GPU-kernel verification (§III-A).

    Every selected kernel is verified at each dynamic occurrence: it runs on
    the simulated GPU against inputs produced by the sequential reference
    (memory-transfer demotion), its outputs land in temporaries, the
    original sequential code runs, and the results are compared under the
    configured error margin.  Sequential results always win, so errors never
    propagate between kernels. *)

type kernel_report = {
  kr_kernel : Codegen.Tprog.kernel;
  kr_occurrences : int;  (** dynamic launches verified *)
  kr_mismatches : Accrt.Value.mismatch list;
  kr_assertion_failures : string list;
  kr_symbolic : Symeq.Engine.verdict option;
      (** tier-0 symbolic verdict, when the symbolic tier ran *)
}

type t = {
  reports : kernel_report list;
  metrics : Gpusim.Metrics.t;  (** Figure 3's cost breakdown *)
  timeline : Gpusim.Timeline.t;  (** device events (with [trace]) *)
  sequential_ops : int;
      (** op count of the sequential reference, for normalization.  It is
          counted on the verification run itself, whose compute regions
          execute their kernels' sequential sources in place of the region
          body: equal to {!Accrt.Eval.run_reference}'s count whenever each
          compute region is a single loop, as in every suite program. *)
  symeq : Symeq.Engine.t option;
      (** symbolic-tier verdicts for every kernel (with [symbolic]) *)
}

val kernel_ok : kernel_report -> bool
val detected_errors : t -> kernel_report list

(** Verify a translation made by {!Compiler}: every kernel of [tp] runs
    against the sequential reference of [tp]'s source (the program with
    its callees inlined).
    [engine] selects the execution engine of the reference run, of every
    compute region's sequential run and of the simulated kernels —
    {!Accrt.Engine.Compiled} (default) compiles each kernel's body and
    sequential source once per verification run, {!Accrt.Engine.Tree}
    walks them (verdicts, [sequential_ops] and metrics are
    engine-independent).  [obs] records a
    "verify" phase span with one [Kernel] span per verified occurrence and
    all metrics charges; [trace] additionally records the device timeline
    (exported as [Device] leaves when [obs] is also given).

    [symbolic] enables the tier-0 symbolic equivalence check
    ({!Symeq.Engine}): kernels it proves equivalent skip the numeric
    comparison run entirely (their occurrences execute sequentially
    only), [Unknown] kernels fall back to the numeric comparator, and
    [Disproved] kernels still run numerically so the two tiers can be
    cross-checked.  With [obs], the tier runs under a "symeq" phase span
    and records [symeq.proved]/[symeq.disproved]/[symeq.unknown]
    counters. *)
val verify_tprog :
  ?config:Vconfig.t -> ?engine:Accrt.Engine.t -> ?obs:Obs.Trace.t ->
  ?trace:bool -> ?symbolic:bool -> Codegen.Tprog.t -> t

(** Compile [prog] with {!Compiler.compile_program} and verify the
    translation; [opts] controls translation (use
    {!Codegen.Options.fault_injection} for the Table II experiment).
    @raise Minic.Loc.Error on type errors
    @raise Acc.Validate.Invalid on OpenACC misuse *)
val verify :
  ?opts:Codegen.Options.t -> ?config:Vconfig.t -> ?engine:Accrt.Engine.t ->
  ?obs:Obs.Trace.t -> ?trace:bool -> ?symbolic:bool -> Minic.Ast.program ->
  t

val pp_report : Format.formatter -> kernel_report -> unit
