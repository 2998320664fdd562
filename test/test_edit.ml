(* Directive/statement editing primitives used by the optimizer. *)

open Minic
open Minic.Ast

let prog_with_update =
  "int main() { float a[4]; float b[4];\nfor (int k = 0; k < 2; k++) \
   {\n#pragma acc update host(a, b)\n}\nreturn 0; }"

let find_update prog =
  List.find_map
    (fun (sid, _, d) -> if d.dir = Acc_update then Some (sid, d) else None)
    (Acc.Query.directives_of prog)

let test_clause_list_edits () =
  let clauses =
    [ Cdata (Dk_copy, [ Acc.Edit.sub "a"; Acc.Edit.sub "b" ]);
      Cprivate [ "t" ] ]
  in
  let without_a = Acc.Edit.remove_data_var clauses "a" in
  (match Acc.Edit.find_data_kind without_a "a" with
  | None -> ()
  | Some _ -> Alcotest.fail "a removed");
  Alcotest.(check bool) "b kept" true
    (Acc.Edit.find_data_kind without_a "b" = Some Dk_copy);
  let moved = Acc.Edit.set_data_kind clauses "a" Dk_create in
  Alcotest.(check bool) "a moved to create" true
    (Acc.Edit.find_data_kind moved "a" = Some Dk_create);
  (* weakening / strengthening ladders *)
  Alcotest.(check bool) "copy -In-> copyout" true
    (Acc.Edit.weaken_kind Dk_copy `In = Dk_copyout);
  Alcotest.(check bool) "copyin -In-> create" true
    (Acc.Edit.weaken_kind Dk_copyin `In = Dk_create);
  Alcotest.(check bool) "create -Out-> copyout" true
    (Acc.Edit.strengthen_kind Dk_create `Out = Dk_copyout);
  Alcotest.(check bool) "copyin -Out-> copy" true
    (Acc.Edit.strengthen_kind Dk_copyin `Out = Dk_copy)

let test_remove_update_var () =
  let prog = Parser.parse_string prog_with_update in
  let sid, d = Option.get (find_update prog) in
  let d' = { d with clauses = Acc.Edit.remove_update_var d.clauses ~host:true "a" } in
  (match Acc.Query.update_host_subs d' with
  | [ { sub_var = "b"; _ } ] -> ()
  | _ -> Alcotest.fail "only b left");
  (* directive rewrite through map_directive *)
  let prog' = Acc.Edit.map_directive prog ~sid ~f:(fun _ -> d') in
  let _, d2 = Option.get (find_update prog') in
  Alcotest.(check int) "one var left in program" 1
    (List.length (Acc.Query.update_host_subs d2))

let test_insert_and_remove () =
  let prog = Parser.parse_string prog_with_update in
  let sid, _ = Option.get (find_update prog) in
  let upd = Acc.Edit.mk_update ~host:false [ "a" ] in
  let prog' = Acc.Edit.insert_before prog ~sid [ upd ] in
  Alcotest.(check int) "two updates now" 2
    (List.length
       (List.filter
          (fun (_, _, d) -> d.dir = Acc_update)
          (Acc.Query.directives_of prog')));
  let prog'' = Acc.Edit.remove_stmt prog' ~sid in
  Alcotest.(check int) "back to one" 1
    (List.length
       (List.filter
          (fun (_, _, d) -> d.dir = Acc_update)
          (Acc.Query.directives_of prog'')))

let test_enclosing_loop () =
  let prog = Parser.parse_string prog_with_update in
  let sid, _ = Option.get (find_update prog) in
  match Acc.Edit.enclosing_loop prog ~sid with
  | Some { skind = Sfor _; _ } -> ()
  | _ -> Alcotest.fail "update is inside the k loop"

let test_wrap_span () =
  let src =
    "int main() { float a[4];\nfor (int i = 0; i < 4; i++) { a[i] = 1.0; \
     }\n#pragma acc kernels loop\nfor (int i = 0; i < 4; i++) { a[i] = \
     a[i] * 2.0; }\nfloat cs = a[0];\nreturn 0; }"
  in
  let prog = Parser.parse_string src in
  let region_sid =
    List.find_map
      (fun (sid, _, d) ->
        if Acc.Query.is_compute d.dir then Some sid else None)
      (Acc.Query.directives_of prog)
    |> Option.get
  in
  let wrapped =
    Acc.Edit.wrap_span prog ~first_sid:region_sid ~last_sid:region_sid
      ~directive:(Acc.Edit.mk_data_directive [ ("a", Dk_copy) ])
  in
  Alcotest.(check bool) "data region added" true
    (Acc.Edit.has_data_region wrapped);
  (* the wrapped program still validates and runs correctly *)
  Acc.Validate.check_program wrapped;
  let env = Typecheck.check wrapped in
  let tp = Codegen.Translate.translate env wrapped in
  let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
  Alcotest.(check (float 0.)) "still correct" 2.0
    (Accrt.Value.to_float (Accrt.Interp.host_scalar o "cs"))

let test_regions_with_var () =
  let src =
    "int main() { float a[4]; float b[4];\n#pragma acc data copyin(a) \
     create(b)\n{\n#pragma acc kernels loop\nfor (int i = 0; i < 4; i++) { \
     b[i] = a[i]; }\n}\nreturn 0; }"
  in
  let prog = Parser.parse_string src in
  (match Acc.Edit.regions_with_var prog ~var:"a" with
  | [ (_, d, sids) ] ->
      Alcotest.(check bool) "is the data region" true (d.dir = Acc_data);
      Alcotest.(check bool) "covers its body" true (List.length sids > 1)
  | _ -> Alcotest.fail "one region for a");
  Alcotest.(check (list int)) "none for unknown" []
    (List.map (fun (s, _, _) -> s)
       (Acc.Edit.regions_with_var prog ~var:"zz"))

(* ------------------------------------------------------------------ *)
(* Round-trip properties: every rewrite primitive the saturate search   *)
(* uses must produce a program whose pretty-printed form reparses to    *)
(* the same AST (structural equality, sid/loc-free), and a no-op edit   *)
(* must leave the program structurally unchanged.                       *)
(* ------------------------------------------------------------------ *)

let roundtrips name prog =
  let printed = Minic.Pretty.program_to_string prog in
  let reparsed = Parser.parse_string ~file:"<roundtrip>" printed in
  Alcotest.(check bool) (name ^ ": print/reparse round trip") true
    (Ast.equal_program prog reparsed)

let hoist_src =
  "int main() { float a[8]; float b[8];\n\
   for (int i = 0; i < 8; i++) { a[i] = i; b[i] = 0.0; }\n\
   for (int t = 0; t < 4; t++) {\n\
   #pragma acc kernels loop copyin(a) copy(b)\n\
   for (int i = 0; i < 8; i++) { b[i] = b[i] + a[i]; }\n\
   }\nfloat cs = b[0];\nreturn 0; }"

let compute_sids prog =
  List.filter_map
    (fun (sid, _, d) ->
      if Acc.Query.is_compute d.dir then Some sid else None)
    (Acc.Query.directives_of prog)

let test_roundtrip_hoist () =
  (* the hoist edit: wrap the enclosing loop in a fresh data region *)
  let prog = Parser.parse_string hoist_src in
  let ksid = List.hd (compute_sids prog) in
  let loop = Option.get (Acc.Edit.enclosing_loop prog ~sid:ksid) in
  let hoisted =
    Acc.Edit.wrap_stmt prog ~sid:loop.sid
      ~directive:
        (Acc.Edit.mk_data_directive
           [ ("a", Dk_copyin); ("b", Dk_copy) ])
  in
  Alcotest.(check bool) "hoist changed the program" false
    (Ast.equal_program prog hoisted);
  Alcotest.(check bool) "data region present" true
    (Acc.Edit.has_data_region hoisted);
  roundtrips "hoist" hoisted

let merge_src =
  "int main() { float y[8];\n\
   #pragma acc kernels loop copy(y)\n\
   for (int i = 0; i < 8; i++) { y[i] = i; }\n\
   #pragma acc kernels loop copy(y)\n\
   for (int i = 0; i < 8; i++) { y[i] = y[i] * 2.0; }\n\
   float cs = y[0];\nreturn 0; }"

let test_roundtrip_merge () =
  (* the merge edit: one data region spanning two adjacent kernels *)
  let prog = Parser.parse_string merge_src in
  match compute_sids prog with
  | [ s1; s2 ] ->
      let first_sid = min s1 s2 and last_sid = max s1 s2 in
      let merged =
        Acc.Edit.wrap_span prog ~first_sid ~last_sid
          ~directive:(Acc.Edit.mk_data_directive [ ("y", Dk_copy) ])
      in
      Alcotest.(check bool) "merge changed the program" false
        (Ast.equal_program prog merged);
      roundtrips "merge" merged
  | _ -> Alcotest.fail "expected exactly two compute regions"

let test_roundtrip_present () =
  (* the present edit: retarget a data clause's kind in place *)
  let prog = Parser.parse_string merge_src in
  let sid = List.hd (compute_sids prog) in
  let pinned =
    Acc.Edit.map_directive prog ~sid ~f:(fun d ->
        { d with clauses = Acc.Edit.set_data_kind d.clauses "y" Dk_present })
  in
  Alcotest.(check bool) "present changed the program" false
    (Ast.equal_program prog pinned);
  roundtrips "present" pinned;
  (* and the program itself round-trips before any edit *)
  roundtrips "unedited" prog

let test_noop_edit_identity () =
  let prog = Parser.parse_string hoist_src in
  let ksid = List.hd (compute_sids prog) in
  (* identity directive rewrite *)
  let same = Acc.Edit.map_directive prog ~sid:ksid ~f:(fun d -> d) in
  Alcotest.(check bool) "map_directive id is identity" true
    (Ast.equal_program prog same);
  (* removing a variable the clause list does not mention *)
  let same =
    Acc.Edit.map_directive prog ~sid:ksid ~f:(fun d ->
        { d with clauses = Acc.Edit.remove_data_var d.clauses "nosuch" })
  in
  Alcotest.(check bool) "remove_data_var of absent var is identity" true
    (Ast.equal_program prog same);
  (* rewriting a sid that carries no directive *)
  let same = Acc.Edit.map_directive prog ~sid:99999 ~f:(fun d -> d) in
  Alcotest.(check bool) "map_directive of unknown sid is identity" true
    (Ast.equal_program prog same);
  (* wrap_span over sids that are not top-level statements of main is a
     documented no-op (the saturate search rejects it as such) *)
  let same =
    Acc.Edit.wrap_span prog ~first_sid:99999 ~last_sid:99999
      ~directive:(Acc.Edit.mk_data_directive [ ("a", Dk_copy) ])
  in
  Alcotest.(check bool) "wrap_span of unknown sids is identity" true
    (Ast.equal_program prog same)

let tests =
  [ Alcotest.test_case "clause-list edits" `Quick test_clause_list_edits;
    Alcotest.test_case "remove update var" `Quick test_remove_update_var;
    Alcotest.test_case "insert and remove statements" `Quick
      test_insert_and_remove;
    Alcotest.test_case "enclosing loop" `Quick test_enclosing_loop;
    Alcotest.test_case "wrap span with data region" `Quick test_wrap_span;
    Alcotest.test_case "regions with var" `Quick test_regions_with_var;
    Alcotest.test_case "round trip: hoist edit" `Quick test_roundtrip_hoist;
    Alcotest.test_case "round trip: merge edit" `Quick test_roundtrip_merge;
    Alcotest.test_case "round trip: present edit" `Quick
      test_roundtrip_present;
    Alcotest.test_case "no-op edits are identity" `Quick
      test_noop_edit_identity ]
