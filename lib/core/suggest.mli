(** Suggestion engine: turns the runtime coherence reports of one profiled
    execution into the actionable suggestions the paper's tool offers the
    user (§III-B, §IV-C): redundant-transfer information, missing/incorrect
    errors, and may-redundant warnings the programmer must verify. *)

(** Clause edits address [var], the name the clause gives: the array
    root or a pointer to it.  A suggestion's text and [s_var] name the
    root. *)
type action =
  | Remove_update_var of { sid : int; var : string; host : bool }
      (** delete [var] from the [update] directive at [sid] *)
  | Defer_update of { sid : int; var : string; root : string; host : bool }
      (** delete [var] from the [update] directive at [sid] and update
          [root] past its enclosing loop *)
  | Weaken_clause of { sid : int; var : string; side : [ `In | `Out ] }
      (** drop the redundant side of [var]'s data clause at [sid] *)
  | Add_data_region of
      { vars : (string * Minic.Ast.data_kind * bool) list }
      (** wrap the computation in a [data] region; the bool marks clauses
          backed by certain (not may-dead) evidence *)
  | Add_update of { before_sid : int; var : string; host : bool }
      (** insert an [update] before the statement at [before_sid] *)
  | Report_incorrect of { site : Codegen.Tprog.site; var : string }
      (** an executed transfer shipped outdated data — no automatic edit *)

type suggestion = {
  s_action : action;
  s_var : string;
  s_certain : bool;  (** false: based on may-dead facts, user must verify *)
  s_text : string;
}

val pp : Format.formatter -> suggestion -> unit

(** Classify a transfer-site label ([dataN.copyin(v)], [update0.host(b)],
    [regionN.copyout(a)], [kernel.pcopyin(v)], ...) by the directive kind
    that produced it; [`Implicit] is the default-scheme transfer around a
    kernel with no covering data clause. *)
val site_kind : string -> [ `Update | `Data | `Region | `Implicit ]

(** Derive suggestions from a finished instrumented run. *)
val analyze : Accrt.Interp.outcome -> suggestion list

(** Suggestions that translate into edits (error-only reports excluded). *)
val actionable : suggestion list -> suggestion list
