(** Search-based automatic directive optimizer (ACC Saturator-style,
    arXiv 2306.13002).

    Generates rewrite candidates from the data-movement ledger's "apply"
    verdicts — hoist a [data] region out of the enclosing loop, pin a
    proven-fresh array to [present]/[copyin]/[copyout], merge adjacent
    kernels' round trips under one region — plus structural fusion of
    compatible adjacent kernels, then runs a greedy-with-rollback search:
    apply the top-ranked candidate, validate it (print/reparse round
    trip → static validity, the reparse's one compilation through
    [Openarc_core.Compiler] → §III-A kernel verification with the
    symbolic tier first → identical designated outputs under both
    engines and 1/2/4-device sets → measured diff-profile corroboration
    within 0.25–4x of the prediction), re-run the ledger, repeat until no
    material candidate remains.

    Each checked configuration runs once per candidate: the traced
    tree-engine single-device output run is also the step's measurement,
    the original program's reference run gives the "before" profile, and
    the last accepted measurement gives "after".  Later rungs and the
    next step run on the round-trip rung's reparse under a rebased sid
    allocator, and equal-priced candidates rank by label, so the report
    depends only on the program — not on what the process parsed before,
    nor on how much work the ladder does. *)

type kind = Hoist | Present | Merge | Fuse

val kind_name : kind -> string

(** One rewrite candidate: a label (stable across iterations — the
    rollback blacklist key), the ledger sites it would eliminate, the
    ledger-priced saving, and the program edit itself. *)
type candidate = {
  c_kind : kind;
  c_label : string;
  c_sites : string list;
  c_predicted_s : float;
  c_edit : Minic.Ast.program -> Minic.Ast.program;
}

(** One search step — a candidate attempt, accepted or rejected. *)
type step = {
  st_index : int;
  st_kind : kind;
  st_label : string;
  st_sites : string list;
  st_predicted_s : float;
  st_measured_s : float;  (** measured diff-profile Mem-Transfer delta *)
  st_accepted : bool;
  st_reason : string;  (** "accepted" or "rejected: ..." *)
}

type t = {
  r_name : string;
  r_seed : int;
  r_devices : int;
  r_program : Minic.Ast.program;  (** final program, accepted edits applied *)
  r_steps : step list;
  r_accepted : int;
  r_predicted_s : float;  (** accepted total *)
  r_measured_s : float;
  r_total_before : float;  (** uninstrumented simulated time *)
  r_total_after : float;
  r_before : Obs.Profile.t;
  r_after : Obs.Profile.t;
  r_compile_hits : int;
      (** compiled-kernel reuses, summed over the search's compiled runs *)
  r_compiles : int;  (** kernel compiles, summed over the same runs *)
}

type config = {
  max_steps : int;
  check_devices : int list;
      (** device-set sizes of the output check; must contain 1, since the
          tree-engine single-device check is also the measurement run *)
  seed : int;
}

val default_config : config

(** All rewrite candidates of [prog] under the given ledger analysis (the
    scoring run's outcome supplies the site→sid bridge and the transfer
    model's PCIe parameters). *)
val candidates :
  Minic.Ast.program -> Codegen.Tprog.t -> Obs.Ledger.analysis ->
  Accrt.Interp.outcome -> candidate list

(** Run the search.  [outputs] are the designated host-visible outputs
    every accepted rewrite must preserve exactly (the result comparator,
    {!Accrt.Value.compare_outputs}, at margin 0).  The search
    edits [prog]'s translated source (callees inlined), which is also
    what [r_program] holds.
    @raise Minic.Loc.Error or Acc.Validate.Invalid when [prog] does not
    compile through [Openarc_core.Compiler]
    @raise Invalid_argument when [config.check_devices] lacks 1 *)
val run :
  ?config:config -> name:string -> outputs:string list ->
  Minic.Ast.program -> t

val json_version : int

(** Canonical deterministic JSON (schema [openarc.obs.saturate]). *)
val json : t -> Obs.Pjson.t

(** [json], printed. *)
val to_json : t -> string

val pp : Format.formatter -> t -> unit
