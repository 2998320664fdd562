(** Compiler configuration.

    [auto_recognize] models OpenARC's automatic privatization and
    reduction-variable recognition; the paper's Table II experiment
    disables it (and strips the explicit clauses) to inject the race
    conditions that kernel verification must catch. *)

type t = { auto_recognize : bool }

let default = { auto_recognize = true }

(** Table II fault-injection configuration: no automatic recovery of the
    stripped private/reduction clauses. *)
let fault_injection = { auto_recognize = false }
