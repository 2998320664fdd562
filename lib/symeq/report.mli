(** Canonical serialization of symbolic-equivalence verdicts.

    The JSON document is schema-tagged [openarc.obs.symeq] and fully
    deterministic (kernel order, member order, no timing data), so a
    committed baseline can be compared byte-for-byte.  {!of_json}
    validates and reconstructs a document — the strict inverse of
    {!to_json} — and rejects anything outside the schema. *)

type t = { program : string; result : Engine.t }

val schema : string
(** ["openarc.obs.symeq"] *)

val version : int

val json : t -> Obs.Pjson.t
(** The canonical JSON document. *)

val to_json : t -> string
(** [json], printed. *)

val of_json : string -> (t, string) result
(** Strict inverse of {!to_json}: rejects malformed JSON, wrong or
    missing schema tags, and structurally invalid verdicts. *)

val pp : Format.formatter -> t -> unit
(** Human-readable verdict listing. *)
