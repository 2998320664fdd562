(** Coherence audit log: every {notstale, maystale, stale} transition of
    every shared array with the program point and triggering operation —
    the explanation layer behind the §III-B missing/redundant reports.
    Replayable: folding the entries from the all-fresh initial state
    reaches exactly the final statuses the runtime reports. *)

(** ["cpu"] or ["gpu"]; statuses print as {!Codegen.Tprog.status_name}. *)
val device_name : Codegen.Tprog.device -> string

type entry = {
  a_seq : int;
  a_time : float;  (** simulated seconds *)
  a_var : string;
  a_dev : Codegen.Tprog.device;
  a_from : Codegen.Tprog.status;
  a_to : Codegen.Tprog.status;
  a_op : string;  (** triggering runtime call, e.g. ["check-write"] *)
  a_point : string;  (** program point: transfer-site label or ["stmtN"] *)
  a_loops : (string * int) list;  (** enclosing host loops, outermost first *)
}

type t

val create : unit -> t

val record :
  t -> time:float -> var:string -> dev:Codegen.Tprog.device ->
  from_:Codegen.Tprog.status -> to_:Codegen.Tprog.status -> op:string ->
  point:string -> loops:(string * int) list -> unit

val entries : t -> entry list
val length : t -> int

(** Replay the log from the all-fresh initial state: final status of every
    (variable, device) copy that ever transitioned, sorted. *)
val final_states :
  t -> ((string * Codegen.Tprog.device) * Codegen.Tprog.status) list

val pp_entry : Format.formatter -> entry -> unit
val pp : Format.formatter -> t -> unit

(** One [{"type": "audit", ...}] JSONL line per entry, in order. *)
val to_jsonl : t -> string
