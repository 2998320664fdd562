(* Regenerates the golden files under test/golden/ (see [Goldens]).  Run
   from the repository root: [dune exec test/gen_golden.exe].  Review the
   diff before committing — a changed golden file is a changed
   user-visible diagnostic, check placement, observer label or printed
   program. *)

let out_dir =
  if Array.length Sys.argv > 1 then Sys.argv.(1)
  else Filename.concat "test" "golden"

let () =
  if not (Sys.file_exists out_dir) then
    failwith
      (out_dir
     ^ ": no such directory — run from the repository root, or pass the \
        golden directory as the first argument")

let () =
  List.iter
    (fun (name, render) ->
      let path = Filename.concat out_dir name in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc (render ()));
      Fmt.pr "wrote %s@." path)
    (Goldens.all ())
