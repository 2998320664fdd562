(* The search-based directive optimizer: candidate generation, the
   greedy-with-rollback accept loop, and the shared content-keyed kernel
   store that makes repeated compiled-engine runs of edited program
   variants cheap. *)

let hoistable_src =
  "int main() { float a[32]; float b[32];\n\
   for (int i = 0; i < 32; i++) { a[i] = i; b[i] = 0.0; }\n\
   for (int t = 0; t < 8; t++) {\n\
   #pragma acc kernels loop copyin(a) copy(b)\n\
   for (int i = 0; i < 32; i++) { b[i] = b[i] + a[i]; }\n\
   }\nfloat cs = b[0];\nreturn 0; }"

let translate src =
  let prog = Minic.Parser.parse_string src in
  let env = Minic.Typecheck.check prog in
  (prog, Codegen.Translate.translate env prog)

let counter tr name =
  Option.value ~default:0 (List.assoc_opt name (Obs.Trace.counters tr))

(* ------------------------------------------------------------------ *)
(* Shared kernel store: the compile cache is keyed on kernel content,   *)
(* not kernel id, so a second run — even of a *different translation*   *)
(* whose kernel bodies are unchanged — hits instead of recompiling.     *)
(* ------------------------------------------------------------------ *)

let test_shared_store_hits () =
  let prog, tp = translate hoistable_src in
  let store = Accrt.Compile.create_store () in
  let run tp =
    let tr = Obs.Trace.create () in
    ignore
      (Accrt.Interp.run ~coherence:false ~seed:42
         ~engine:Accrt.Engine.Compiled ~kcache:store ~obs:tr tp);
    (counter tr "engine_compiles", counter tr "engine_compile_hits")
  in
  let compiles1, hits1 = run tp in
  Alcotest.(check int) "first run compiles the kernel once" 1 compiles1;
  (* 8 launches of the t-loop body: 1 compile + 7 in-run hits *)
  Alcotest.(check bool) "first run already reuses within the run" true
    (hits1 >= 7);
  let compiles2, hits2 = run tp in
  Alcotest.(check int) "second run with the shared store compiles nothing"
    0 compiles2;
  Alcotest.(check bool) "second run only hits" true (hits2 >= 8);
  (* an edited program — hoisted data region, kernel body untouched —
     still hits the shared store across a fresh translation *)
  let ksid =
    List.find_map
      (fun (sid, _, d) ->
        if Acc.Query.is_compute d.Minic.Ast.dir then Some sid else None)
      (Acc.Query.directives_of prog)
    |> Option.get
  in
  let loop = Option.get (Acc.Edit.enclosing_loop prog ~sid:ksid) in
  let hoisted =
    Acc.Edit.wrap_stmt prog ~sid:loop.Minic.Ast.sid
      ~directive:
        (Acc.Edit.mk_data_directive
           [ ("a", Minic.Ast.Dk_copyin); ("b", Minic.Ast.Dk_copy) ])
  in
  let env = Minic.Typecheck.check hoisted in
  let tp' = Codegen.Translate.translate env hoisted in
  let compiles3, hits3 = run tp' in
  Alcotest.(check int)
    "edited program with unchanged kernel body compiles nothing" 0
    compiles3;
  Alcotest.(check bool) "edited program hits the shared store" true
    (hits3 >= 8)

(* ------------------------------------------------------------------ *)
(* End-to-end search on a canonical hoistable program                   *)
(* ------------------------------------------------------------------ *)

let test_search_accepts_hoist () =
  let prog = Minic.Parser.parse_string hoistable_src in
  let config =
    { Saturate.default_config with Saturate.check_devices = [ 1; 2 ] }
  in
  let r = Saturate.run ~config ~name:"unit" ~outputs:[ "b" ] prog in
  Alcotest.(check bool) "at least one rewrite accepted" true
    (r.Saturate.r_accepted >= 1);
  Alcotest.(check bool) "the hoist is among the accepted steps" true
    (List.exists
       (fun s -> s.Saturate.st_accepted && s.Saturate.st_kind = Saturate.Hoist)
       r.Saturate.r_steps);
  (* every accepted step's measurement corroborates its prediction *)
  List.iter
    (fun s ->
      if s.Saturate.st_accepted then begin
        Alcotest.(check bool)
          (s.Saturate.st_label ^ ": measured within 0.25-4x of predicted")
          true
          (s.Saturate.st_measured_s >= 0.25 *. s.Saturate.st_predicted_s
          && s.Saturate.st_measured_s <= 4.0 *. s.Saturate.st_predicted_s)
      end)
    r.Saturate.r_steps;
  Alcotest.(check bool) "simulated time went down" true
    (r.Saturate.r_total_after < r.Saturate.r_total_before);
  (* satellite gate: the search's compiled-engine validation runs share
     one content-keyed kernel store, so hits climb across iterations *)
  Alcotest.(check bool) "shared kernel store hit during the search" true
    (r.Saturate.r_compile_hits > 0);
  (* the final program still parses back to itself *)
  let printed = Minic.Pretty.program_to_string r.Saturate.r_program in
  let reparsed = Minic.Parser.parse_string ~file:"<saturated>" printed in
  Alcotest.(check bool) "final program round trips" true
    (Minic.Ast.equal_program r.Saturate.r_program reparsed)

let test_json_report () =
  let prog = Minic.Parser.parse_string hoistable_src in
  let config =
    { Saturate.default_config with
      Saturate.check_devices = [ 1 ];
      max_steps = 2 }
  in
  let run () = Saturate.run ~config ~name:"unit" ~outputs:[ "b" ] prog in
  let j1 = Saturate.to_json (run ()) in
  let j2 = Saturate.to_json (run ()) in
  Alcotest.(check string) "canonical JSON is deterministic" j1 j2;
  let contains ~needle s =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool) (Fmt.str "report mentions %S" needle) true
        (contains ~needle j1))
    [ "\"schema\": \"openarc.obs.saturate\""; "\"version\": 1";
      "\"steps\": ["; "\"predicted_saved_s\""; "\"measured_saved_s\"";
      "\"engine_compile_hits\"" ]

(* The before/after measurements come from the ladder's tree rung, which
   pins the tree walker: a compiled run would record the kernel store's
   [engine_*] counters in the measured profiles. *)
let test_measured_on_tree () =
  let prog = Minic.Parser.parse_string hoistable_src in
  let config =
    { Saturate.default_config with
      Saturate.check_devices = [ 1 ];
      max_steps = 2 }
  in
  let r = Saturate.run ~config ~name:"unit" ~outputs:[ "b" ] prog in
  let engine_keys (p : Obs.Profile.t) =
    List.filter
      (fun (n, _) -> String.length n >= 7 && String.sub n 0 7 = "engine_")
      p.Obs.Profile.p_counters
  in
  Alcotest.(check (list (pair string int))) "before: no engine counters" []
    (engine_keys r.Saturate.r_before);
  Alcotest.(check (list (pair string int))) "after: no engine counters" []
    (engine_keys r.Saturate.r_after)

(* The report depends only on the program: how much work the validation
   ladder does (here, how many device-set sizes it checks) must not change
   the search's order, labels or results — only the kernel-store counters,
   which count that work. *)
let test_report_independent_of_ladder () =
  let report check_devices (b : Suite.Bench_def.t) =
    let r =
      Saturate.run
        ~config:{ Saturate.default_config with Saturate.check_devices }
        ~name:b.name ~outputs:b.outputs
        (Minic.Parser.parse_string ~file:b.name b.source)
    in
    match Obs.Pjson.parse (Saturate.to_json r) with
    | Obs.Pjson.Obj members ->
        Obs.Pjson.to_string
          (Obs.Pjson.Obj
             (List.filter
                (fun (k, _) ->
                  not (String.length k >= 7 && String.sub k 0 7 = "engine_"))
                members))
    | _ -> Alcotest.fail "the report is not a JSON object"
  in
  List.iter
    (fun name ->
      let b = Option.get (Suite.Registry.find name) in
      Alcotest.(check string)
        (name ^ ": same report with 1 and 1/2/4 checked devices")
        (report [ 1 ] b) (report [ 1; 2; 4 ] b))
    [ "BACKPROP"; "SPMUL"; "CG"; "KMEANS" ]

let tests =
  [ Alcotest.test_case "shared kernel store hits across runs" `Quick
      test_shared_store_hits;
    Alcotest.test_case "search accepts the hoist" `Slow
      test_search_accepts_hoist;
    Alcotest.test_case "canonical JSON report" `Quick test_json_report;
    Alcotest.test_case "measurements run on the tree walker" `Quick
      test_measured_on_tree;
    Alcotest.test_case "report independent of the ladder's work" `Slow
      test_report_independent_of_ladder ]
