(** The one front end: parse → validate → type check → translate.  Every
    tool compiles through here and gets the translation itself. *)

(* Compile-phase spans use the trace's default constant clock, so their
   presence never perturbs byte-reproducible outputs. *)
let phase obs name f =
  match obs with
  | None -> f ()
  | Some tr -> Obs.Trace.with_span tr Obs.Trace.Phase name f

let compile_program ?(opts = Codegen.Options.default) ?obs program =
  phase obs "validate" (fun () -> Acc.Validate.check_program program);
  let env = phase obs "typecheck" (fun () -> Minic.Typecheck.check program) in
  let tp =
    phase obs "translate" (fun () ->
        Codegen.Translate.translate ~opts env program)
  in
  (match obs with
  | Some tr ->
      Obs.Trace.count tr "kernels" (Array.length tp.Codegen.Tprog.kernels)
  | None -> ());
  tp

let compile ?opts ?file ?obs src =
  compile_program ?opts ?obs
    (phase obs "parse" (fun () -> Minic.Parser.parse_string ?file src))
