(** Per-directive cost attribution computed from a {!Trace} — the paper's
    Figure 3/4 stacked breakdown, plus a folded-stack flamegraph export.

    Totals are recomputed by replaying the trace's charge events in
    chronological order, i.e. the identical float-addition sequence the
    {!Gpusim.Metrics} accumulator performed, so [conserves] holds with
    bit-exact equality. *)

type row = {
  r_directive : string;
  r_kind : string;  (** span kind of the attributed span, or ["host"] *)
  r_loc : string;  (** source location, or [""] *)
  r_cats : (string * float) list;  (** per-category seconds, canonical order *)
  r_total : float;
}

type t = {
  p_categories : string list;  (** canonical category order *)
  p_rows : row list;  (** first-charge order *)
  p_totals : (string * float) list;  (** per-category grand totals *)
  p_total : float;  (** folds [p_totals] in canonical order *)
  p_devices : (int * row list) list;
      (** per-device-ordinal tables from device-tagged charges, ordinal
          ascending; empty on single-device runs.  The grand totals
          replay only host-clock charges (untagged ones plus the
          primary's, ordinal 0), so [conserves] keeps holding against
          the primary accumulator on multi-device runs *)
  p_counters : (string * int) list;
}

(** [of_trace ~categories tr] folds the charge events of [tr] into
    per-directive rows.  [categories] fixes the canonical category order
    (use [Gpusim.Metrics.all_categories] names). *)
val of_trace : categories:string list -> Trace.t -> t

(** [conserves p ~total] — bit-exact equality of the replayed grand total
    against the accumulator's total ([Gpusim.Metrics.total_time]). *)
val conserves : t -> total:float -> bool

(** Text table: one line per directive, zero-total categories elided. *)
val pp : Format.formatter -> t -> unit

(** Canonical deterministic JSON document (schema [openarc.obs.profile])
    — byte-comparable across runs with the same seed. *)
val json : name:string -> seed:int -> t -> Pjson.t

(** [json], printed. *)
val to_json : name:string -> seed:int -> t -> string

(** Folded-stack flamegraph lines ([name;...;category nanoseconds]),
    sorted; feed to flamegraph.pl or speedscope. *)
val folded : Trace.t -> string
