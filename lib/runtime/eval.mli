(** Mini-C evaluator: expressions and sequential statement execution.

    Serves the reference CPU interpreter (directives transparent), the host
    side of the translated-program interpreter, and the kernel-body
    executor.  Every visited node bumps [ops] — the unit of simulated CPU
    and GPU cost accounting.  The meanings of the builtins (the math
    functions here, the OpenACC runtime routines [acc_*] in {!Acc_api}) are
    shared with the compiled engine, which keeps only its evaluation. *)

type ctx = {
  env : Value.t;
  prog : Minic.Ast.program;  (** for user-function calls *)
  mutable ops : int;
  mutable stmt_hook : (ctx -> Minic.Ast.stmt -> bool) option;
      (** returns [true] when it fully handled the statement (kernel
          verification intercepts compute regions this way) *)
  mutable routines : (string * Value.builtin) list;
      (** the [acc_*] routines' meanings: {!Acc_api.host} until a device
          set is attached *)
}

val make :
  ?hook:(ctx -> Minic.Ast.stmt -> bool) -> Minic.Ast.program -> Value.t ->
  ctx

exception Break_exc
exception Continue_exc
exception Return_exc of Value.scalar option

(** [true] for names of OpenACC runtime-library routines ([acc_*]);
    character-wise so the hot path allocates nothing. *)
val is_acc_routine : string -> bool

(** The math builtins' meanings: one per name of
    {!Minic.Typecheck.builtins} that is not an [acc_*] routine.  Both
    engines evaluate a builtin's arguments left to right. *)
val builtins : (string * Value.builtin) list

(** [arity_error f b]: a call of builtin [f] with an argument count other
    than [b]'s arity.
    @raise Value.Runtime_error in the typechecker's wording. *)
val arity_error : string -> Value.builtin -> 'a

(** [acc_call ctx f args]: the [acc_*] routine [f] on its evaluated
    arguments, as [ctx.routines] means it.
    @raise Value.Runtime_error on an unknown routine or a wrong argument
    count. *)
val acc_call : ctx -> string -> Value.scalar list -> Value.scalar

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
