(** Mini-C evaluator: expressions and sequential statement execution.

    Serves the reference CPU interpreter (directives transparent), the host
    side of the translated-program interpreter, and the kernel-body
    executor.  Every visited node bumps [ops] — the unit of simulated CPU
    and GPU cost accounting.  The OpenACC runtime routines ([acc_*]) are
    served by [call_hook] when a device is attached, with host-only
    semantics otherwise. *)

type ctx = {
  env : Value.t;
  prog : Minic.Ast.program;  (** for user-function calls *)
  mutable ops : int;
  mutable stmt_hook : (ctx -> Minic.Ast.stmt -> bool) option;
      (** returns [true] when it fully handled the statement (kernel
          verification intercepts compute regions this way) *)
  mutable call_hook :
    (string -> Value.scalar list -> Value.scalar option) option;
}

val make :
  ?hook:(ctx -> Minic.Ast.stmt -> bool) option -> Minic.Ast.program ->
  Value.t -> ctx

exception Break_exc
exception Continue_exc
exception Return_exc of Value.scalar option

(** [true] for names of OpenACC runtime-library routines ([acc_*]);
    character-wise so the hot path allocates nothing. *)
val is_acc_routine : string -> bool

(** Host-only (reference execution) semantics of the [acc_*] routines. *)
val host_acc_routine : string -> Value.scalar list -> Value.scalar

(** Shared comparison results: boolean-valued operators of both execution
    engines fold through [of_bool], so they never box a fresh scalar. *)
val int_false : Value.scalar

val int_true : Value.scalar
val of_bool : bool -> Value.scalar

(** C-like arithmetic on scalars (ints stay ints, mixing promotes). *)
val arith : Minic.Ast.binop -> Value.scalar -> Value.scalar -> Value.scalar

(** Default value of a scalar declaration without initializer. *)
val zero_of_typ : Minic.Ast.typ -> Value.scalar

(** Element kind of a (possibly nested) array/pointer type. *)
val base_is_float : Minic.Ast.typ -> bool

val eval : ctx -> Minic.Ast.expr -> Value.scalar
val exec : ctx -> Minic.Ast.stmt -> unit
val exec_block : ctx -> Minic.Ast.block -> unit

(** Bind the program's global variables as the environment's globals;
    run it on a fresh environment, before [main]. *)
val init_globals : ctx -> unit

(** Run the whole program sequentially (the reference execution of
    §III-A); [hook] may intercept statements. *)
val run_reference :
  ?hook:(ctx -> Minic.Ast.stmt -> bool) -> Minic.Ast.program -> ctx
