(** The [openarc lint] entry point. *)

module Diag = Diag
module Race = Race
module Xfer = Xfer

let run_tprog tp =
  let ds = Race.analyze tp @ Xfer.analyze tp in
  Diag.sort (List.sort_uniq compare ds)

let run_program ?opts prog =
  run_tprog (Openarc_core.Compiler.compile_program ?opts prog)
