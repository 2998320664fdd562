(** The lint diagnostics engine: severities, stable diagnostic codes, source
    locations, fix-it suggestions expressed as {!Acc.Edit} clause edits, and
    text/JSON renderers.

    Codes are stable across releases and documented in the README:

    - [ACC-RACE-001] scalar requires a [private] clause (missing
      privatization; latent under register promotion)
    - [ACC-RACE-002] accumulator requires a [reduction] clause
    - [ACC-RACE-003] cross-iteration array write-write conflict
    - [ACC-RACE-004] cross-iteration array read-write dependence
    - [ACC-RACE-005] loop-carried scalar dependence (not privatizable)
    - [ACC-RACE-010] scalar privatized only by automatic recognition
    - [ACC-RACE-011] reduction recognized only automatically
    - [ACC-XFER-001] missing transfer: a stale copy is read
    - [ACC-XFER-002] possibly missing transfer (stale copy written, or a
      copy that may be stale is read)
    - [ACC-XFER-003] incorrect transfer: an outdated value is shipped
    - [ACC-XFER-004] redundant transfer (on every execution)
    - [ACC-XFER-005] may-redundant transfer *)

type severity = Error | Warning | Info

val severity_name : severity -> string

(** [at_least threshold s]: does [s] reach [threshold]?  ([Error] is the
    highest severity.) *)
val at_least : severity -> severity -> bool

(** A machine-applicable repair, in terms of the {!Acc.Edit} primitives. *)
type fixit =
  | Fix_add_private of { sid : int; var : string }
  | Fix_add_reduction of { sid : int; op : Minic.Ast.redop; var : string }
  | Fix_weaken_clause of { sid : int; var : string; side : [ `In | `Out ] }
  | Fix_remove_update_var of { sid : int; var : string; host : bool }
  | Fix_insert_update of { before_sid : int; var : string; host : bool }

(** Apply a fix-it to the source program.  The transfer fix-its are the
    session's edits ({!Openarc_core.Session.apply_action}): removing the
    last variable of an [update] removes the directive. *)
val apply_fixit : Minic.Ast.program -> fixit -> Minic.Ast.program

val fixit_text : fixit -> string

type t = {
  code : string;  (** stable diagnostic code, e.g. ["ACC-RACE-001"] *)
  severity : severity;
  loc : Minic.Loc.t;
  var : string option;  (** variable the diagnostic is about *)
  site : string option;  (** transfer-site label, for transfer diagnostics *)
  message : string;
  fixit : fixit option;
}

val mk :
  ?var:string -> ?site:string -> ?fixit:fixit -> code:string ->
  severity:severity -> loc:Minic.Loc.t -> string -> t

(** Deterministic presentation order: location, then code, then subject. *)
val sort : t list -> t list

val filter : threshold:severity -> t list -> t list

(** Most severe level present, if any. *)
val worst : t list -> severity option

val pp : Format.formatter -> t -> unit
val to_text : t list -> string

(** JSON array of diagnostic objects with [code], [severity], [file],
    [line], [col], [var], [site], [message], [fixit] fields. *)
val to_json : t list -> string
