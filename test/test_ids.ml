(* Ids belong to the program: statement ids, translated-statement ids,
   site ids and labels, kernel names and inlined names are a function of
   the program compiled, never of what the process compiled or ran
   before.  The test compiles every suite variant, then runs, verifies
   and optimizes them all in the same process, and compiles again. *)

open Minic

let variants =
  List.concat_map
    (fun (b : Suite.Bench_def.t) ->
      [ (b.name, b.source, b.outputs);
        (b.name ^ ":opt", b.optimized, b.outputs) ])
    Suite.Registry.all

(* The sids of the translated source and the tids of its instrumented
   translation, in program order. *)
let ids (tp : Codegen.Tprog.t) =
  let sids = ref [] and tids = ref [] in
  List.iter
    (fun f -> Ast.iter_stmts (fun s -> sids := s.Ast.sid :: !sids) f.Ast.f_body)
    (Ast.functions tp.source);
  Codegen.Tprog.iter (Codegen.Checkgen.instrument tp) (fun s ->
      tids := s.tid :: !tids);
  (List.rev !sids, List.rev !tids)

(* Every site (id, label, sid), every kernel (name, sid) and the
   translated source text, which carries the inlined names. *)
let names (tp : Codegen.Tprog.t) =
  let sites = ref [] in
  Codegen.Tprog.iter tp (fun s ->
      match s.tkind with
      | Talloc (_, site) | Tfree (_, site) | Txfer { x_site = site; _ } ->
          sites :=
            Fmt.str "%d %s %d" site.site_id site.site_label site.site_sid
            :: !sites
      | _ -> ());
  let kernels =
    Array.to_list
      (Array.map
         (fun (k : Codegen.Tprog.kernel) -> Fmt.str "%s %d" k.k_name k.k_sid)
         tp.kernels)
  in
  (List.rev !sites, kernels, Pretty.program_to_string tp.source)

let lint_text src =
  Lint.Diag.to_text (Lint.run_tprog (Openarc_core.Compiler.compile src))

let backprop_session () =
  let b = Option.get (Suite.Registry.find "backprop") in
  Openarc_core.Session.to_json ~name:b.name
    (Openarc_core.Session.optimize ~outputs:b.outputs
       (Parser.parse_string ~file:b.name b.source))

(* A directive-carrying callee called twice: its copies are named after
   the first and second inlined call on every compile. *)
let twice =
  "void scale(float y[], int n) {\n#pragma acc kernels loop copy(y[0:n])\n\
   for (int i = 0; i < n; i++) { y[i] = y[i] * 2.0; }\n}\n\
   int main() { int n = 16; float y[n];\nfor (int i = 0; i < n; i++) { \
   y[i] = 1.0; }\nscale(y, n);\nscale(y, n);\nreturn 0; }"

let check_inlined what =
  let tp = Openarc_core.Compiler.compile twice in
  let declared = ref [] in
  Ast.iter_stmts
    (fun s ->
      match s.Ast.skind with
      | Ast.Sdecl (Ast.Tptr _, v, _) -> declared := v :: !declared
      | _ -> ())
    (Ast.main_function tp.source).f_body;
  Alcotest.(check (list string))
    (what ^ ": inlined calls named __1_ and __2_")
    [ "scale__1_y"; "scale__2_y" ] (List.rev !declared)

let test_ids_per_program () =
  check_inlined "first compile";
  let fingerprint src =
    let tp = Openarc_core.Compiler.compile src in
    (ids tp, names tp)
  in
  let first = List.map (fun (_, src, _) -> fingerprint src) variants in
  let lints = List.map (fun (_, src, _) -> lint_text src) variants in
  let session = backprop_session () in
  List.iter
    (fun (name, src, outputs) ->
      let tp =
        Codegen.Checkgen.instrument (Openarc_core.Compiler.compile src)
      in
      List.iter
        (fun devices -> ignore (Accrt.Interp.run ~coherence:true ~devices tp))
        [ 1; 2; 4 ];
      let prog () = Parser.parse_string ~file:name src in
      ignore (Openarc_core.Kernel_verify.verify (prog ()));
      ignore (Openarc_core.Session.optimize ~outputs (prog ())))
    variants;
  List.iter2
    (fun (name, src, _) (ids1, names1) ->
      let ids2, names2 = fingerprint src in
      Alcotest.(check (pair (list int) (list int)))
        (name ^ ": same sids and tids") ids1 ids2;
      Alcotest.(check (triple (list string) (list string) string))
        (name ^ ": same sites, kernels and names") names1 names2)
    variants first;
  List.iter2
    (fun (name, src, _) text ->
      Alcotest.(check string) (name ^ ": same lint text") text (lint_text src))
    variants lints;
  Alcotest.(check string) "BACKPROP: same session export" session
    (backprop_session ());
  check_inlined "last compile"

let tests =
  [ Alcotest.test_case "ids are per program" `Quick test_ids_per_program ]
