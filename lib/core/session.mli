(** The interactive memory-transfer optimization loop of Figure 2, driven
    by a scripted programmer: profile with coherence instrumentation, apply
    the tool's suggestions as directive edits, repeat until a profiled run
    is clean.  Wrong (may-dead-based) suggestions are detected one iteration
    later, repaired, and counted — Table III's "incorrect iterations". *)

type policy =
  | Follow_all  (** apply certain and may-based suggestions (paper's user) *)
  | Conservative  (** apply only certain suggestions *)

(** Structured telemetry of one loop iteration: profile snapshot of the
    instrumented run, coherence report counts, suggestions applied,
    dynamic transfer stats, and the verification outcome. *)
type iteration = {
  it_index : int;  (** 1-based *)
  it_profile : Obs.Profile.t option;
      (** per-directive snapshot; [None] when the run raised *)
  it_report_counts : (string * int) list;
      (** coherence report kind -> count, fixed kind order *)
  it_suggestions : (string * bool) list;
      (** applied suggestions (rendered text, certain?) *)
  it_transfers : int;
  it_bytes : int;
  it_bytes_by_cause : (string * int) list;
      (** data-movement ledger: bytes by cause, first-use order *)
  it_wasted_bytes : int;
      (** bytes the ledger's counterfactual analyzer marks redundant or
          hoistable this iteration *)
  it_peak_bytes : int;  (** largest per-device allocation watermark *)
  it_outputs_ok : bool;
  it_wrong_restored : string list;
      (** vars whose earlier removal was exposed as wrong and restored *)
  it_reverted : bool;
  it_note : string;  (** "converged", "reverted", "failed: ...", or "" *)
  it_events : string list;  (** human-readable event lines *)
}

type result = {
  final : Minic.Ast.program;
      (** the optimized program: the converged one, else the latest whose
          outputs matched the reference *)
  iterations : int;  (** total verification iterations (Table III) *)
  incorrect_iterations : int;
  converged : bool;
  telemetry : iteration list;  (** one record per iteration, in order *)
}

(** Flattened per-iteration event lines (the old [log] field). *)
val log_lines : result -> string list

(** Iteration-by-iteration narrative with inter-iteration profile diffs
    ({!Obs.Diff}) — the Figure-2 loop made observable end to end. *)
val report : name:string -> result -> string

(** Schema version of {!to_json} (v2 added the per-record [ledger]
    data-movement summary). *)
val json_version : int

(** Canonical deterministic JSON export of the telemetry
    (schema [openarc.obs.session]): per-iteration records with embedded
    profiles and ledger summaries, plus the consecutive profile diffs. *)
val to_json : name:string -> result -> string

(** Do a candidate run's designated outputs match the sequential reference
    (within a small tolerance absorbing tree-order reductions)? *)
val outputs_match :
  outputs:string list -> reference:Accrt.Value.t -> Accrt.Interp.outcome ->
  bool

(** Apply one suggestion as a source edit. *)
val apply_action : Minic.Ast.program -> Suggest.action -> Minic.Ast.program

(** Run the loop on [prog]; [outputs] are the names checked against the
    sequential reference after each edit round (the §IV-C safety net).
    [devices]/[schedule] size the simulated device set for every profiled
    run (see {!Accrt.Interp.exec}), so the coherence reports driving the
    loop include per-device staleness — e.g. cross-device redundant
    transfers.  A session that stops without converging returns, as
    [final], the latest program whose outputs matched the reference (the
    input program, with its callees inlined, if none did).  Every
    iteration's program is compiled by {!Compiler}.
    @raise Minic.Loc.Error on type errors
    @raise Acc.Validate.Invalid on OpenACC misuse
    @raise Failure when an output names no variable of the program's
    sequential reference run. *)
val optimize :
  ?policy:policy -> ?max_iterations:int -> ?devices:int ->
  ?schedule:Gpusim.Device_set.schedule -> outputs:string list ->
  Minic.Ast.program -> result

(** Dynamic transfer statistics of a program compiled by {!Compiler}:
    (transfer count, bytes). *)
val transfer_stats : Minic.Ast.program -> int * int
