(* Regenerates the golden expected-diagnostic files under test/golden/.
   Run from the repository root: [dune exec test/gen_golden.exe].  Review
   the diff before committing — a changed golden file is a changed
   user-visible diagnostic. *)

let out_dir =
  if Array.length Sys.argv > 1 then Sys.argv.(1)
  else Filename.concat "test" "golden"

let () =
  if not (Sys.file_exists out_dir) then
    failwith
      (out_dir
     ^ ": no such directory — run from the repository root, or pass the \
        golden directory as the first argument")

let write path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      List.iter
        (fun (vname, src) ->
          let ds =
            Lint.run_tprog (Openarc_core.Compiler.compile ~file:b.name src)
          in
          (* Rendered as test_lint renders the goldens it compares. *)
          let text =
            Lint.Diag.to_text (Lint.Diag.filter ~threshold:Lint.Diag.Info ds)
          in
          let path =
            Filename.concat out_dir
              (Fmt.str "%s.%s.lint" (String.lowercase_ascii b.name) vname)
          in
          write path text;
          Fmt.pr "wrote %s (%d diagnostics)@." path (List.length ds))
        [ ("source", b.source); ("opt", b.optimized) ])
    Suite.Registry.all
