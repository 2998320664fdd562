(** Differential profiling: compare two per-directive cost profiles (the
    canonical [openarc profile --json] documents, or in-memory
    {!Profile.t} values) and attribute the shift.

    This is the paper's Figure-2 loop made observable iteration to
    iteration: each data-clause edit should visibly move time out of the
    transfer categories of specific data directives, and the diff names
    exactly which directives won, lost, appeared or vanished.

    Deltas are plain float subtraction of the two profiles' values.  Two
    structurally identical profiles therefore diff to *exactly* zero
    (float [=], matching the profiler's bit-exact conservation
    discipline) — there is no epsilon anywhere in this module; tolerance
    policy, if any, belongs to the callers. *)

type verdict =
  | Improved  (** present in both, total went down *)
  | Regressed  (** present in both, total went up *)
  | Appeared  (** directive only charged in the [after] profile *)
  | Vanished  (** directive only charged in the [before] profile *)
  | Unchanged  (** present in both, totals exactly equal *)

val verdict_name : verdict -> string

type cat_delta = {
  cd_cat : string;
  cd_before : float;
  cd_after : float;
  cd_delta : float;  (** [cd_after -. cd_before] *)
}

type row_delta = {
  rd_directive : string;
  rd_kind : string;  (** from the side that has the row ([after] wins) *)
  rd_loc : string;
  rd_verdict : verdict;
  rd_before : float;
  rd_after : float;
  rd_delta : float;
  rd_cats : cat_delta list;  (** union category order *)
}

type t = {
  d_before_name : string;
  d_after_name : string;
  d_categories : string list;  (** [before] order, then new [after] ones *)
  d_rows : row_delta list;  (** [before] row order, then appeared rows *)
  d_totals : cat_delta list;  (** per-category grand-total deltas *)
  d_total_before : float;
  d_total_after : float;
  d_delta : float;
  d_counters : (string * int * int) list;  (** name, before, after *)
}

(** [diff ~before ~after] compares two profiles; the optional names label
    the report (defaults ["before"]/["after"]). *)
val diff :
  ?before_name:string -> ?after_name:string -> before:Profile.t ->
  after:Profile.t -> unit -> t

(** Every delta is exactly [0.] (float [=]), no row appeared or vanished,
    and every counter is equal. *)
val is_zero : t -> bool

(** The category moving the most time in [r] (largest [|cd_delta|]), when
    any moved at all. *)
val dominant_cat : row_delta -> string option

(** Rows sorted by [|rd_delta|] descending, exact-zero rows elided. *)
val movers : t -> row_delta list

(** Text report: totals, per-category shifts, directive movers with their
    dominant category, changed counters. *)
val pp : Format.formatter -> t -> unit

(** Canonical deterministic JSON document
    (schema [openarc.obs.profile-diff]). *)
val json : t -> Pjson.t

(** [json], printed. *)
val to_json : t -> string

(** Parse a canonical [openarc profile --json] document back into a
    profile, with its [name] and [seed].  Rejects other schemas and
    versions, and what a profile cannot hold: a non-integral or
    out-of-range [seed] or counter, a number too large for a float. *)
val profile_of_json : string -> (Profile.t * string * int, string) result
