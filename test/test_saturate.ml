(* The search-based directive optimizer: candidate generation, the
   greedy-with-rollback accept loop, its JSON report, and what the report
   depends on. *)

let hoistable_loop =
  "float a[32]; float b[32];\n\
   for (int i = 0; i < 32; i++) { a[i] = i; b[i] = 0.0; }\n\
   for (int t = 0; t < 8; t++) {\n\
   #pragma acc kernels loop copyin(a) copy(b)\n\
   for (int i = 0; i < 32; i++) { b[i] = b[i] + a[i]; }\n\
   }\nfloat cs = b[0];\n"

let hoistable_src = "int main() { " ^ hoistable_loop ^ "return 0; }"

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
  (* the compiled validation runs reuse each kernel they compiled *)
  Alcotest.(check bool) "compiled kernels reused during the search" true
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
   pins the tree walker: a compiled run would record its [engine_*]
   counters in the measured profiles. *)
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
   the search's order, labels or results — only the [engine_*] counters,
   which count that work.  Each search's final program reproduces its
   tree x1 designated outputs at margin 0 under the tree walker on 2 and
   4 devices, which the ladder leaves out, and under the compiled engine
   on 1, 2 and 4, which it runs. *)
let test_report_independent_of_ladder () =
  let final_outputs_match (b : Suite.Bench_def.t) what (r : Saturate.t) =
    let tp = Openarc_core.Compiler.compile_program r.Saturate.r_program in
    let outputs (engine, devices) =
      let o =
        Accrt.Interp.exec
          { Accrt.Interp.default with
            engine; seed = r.Saturate.r_seed; devices }
          Accrt.Interp.detached tp
      in
      Accrt.Value.outputs o.Accrt.Interp.ctx.Accrt.Eval.env b.outputs
    in
    let reference = outputs (Accrt.Engine.Tree, 1) in
    List.iter
      (fun ((engine, devices) as cfg) ->
        Alcotest.(check (list string))
          (Fmt.str "%s, %s: final program's %s x%d matches tree x1" b.name
             what (Accrt.Engine.to_string engine) devices)
          []
          (List.map
             (fun m -> m.Accrt.Value.m_what)
             (Accrt.Value.compare_outputs ~margin:0.0 ~reference
                (outputs cfg))))
      [ (Accrt.Engine.Tree, 2); (Accrt.Engine.Tree, 4);
        (Accrt.Engine.Compiled, 1); (Accrt.Engine.Compiled, 2);
        (Accrt.Engine.Compiled, 4) ]
  in
  let report check_devices (b : Suite.Bench_def.t) =
    let r =
      Saturate.run
        ~config:{ Saturate.default_config with Saturate.check_devices }
        ~name:b.name ~outputs:b.outputs
        (Minic.Parser.parse_string ~file:b.name b.source)
    in
    final_outputs_match b
      (Fmt.str "checked devices %s"
         (String.concat "/" (List.map string_of_int check_devices)))
      r;
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

(* The tree-engine single-device output check is also the measurement
   run, so a ladder without it is refused before any run. *)
let test_requires_one_device () =
  let prog = Minic.Parser.parse_string hoistable_src in
  List.iter
    (fun check_devices ->
      Alcotest.check_raises
        (Fmt.str "check_devices [%s] refused"
           (String.concat "; " (List.map string_of_int check_devices)))
        (Invalid_argument "Saturate.run: check_devices must contain 1")
        (fun () ->
          ignore
            (Saturate.run
               ~config:{ Saturate.default_config with Saturate.check_devices }
               ~name:"unit" ~outputs:[ "b" ] prog)))
    [ []; [ 2 ]; [ 2; 4 ] ]

(* An output the program never binds is refused before any candidate,
   whether the name is unknown or the array is scoped to an inner block
   of [main] (gone when it returns), instead of reading as a divergence
   of every candidate. *)
let test_unbound_output () =
  let jacobi = Option.get (Suite.Registry.find "JACOBI") in
  List.iter
    (fun (what, src, outputs, name) ->
      Alcotest.check_raises what
        (Failure (Fmt.str "output '%s' is not a variable of the program" name))
        (fun () ->
          ignore
            (Saturate.run ~name:"unit" ~outputs
               (Minic.Parser.parse_string src))))
    [ ("JACOBI with an unknown output", jacobi.source,
       jacobi.outputs @ [ "nosuch" ], "nosuch");
      ("an array of an inner block",
       "int main() { { " ^ hoistable_loop ^ "}\nreturn 0; }", [ "b" ], "b") ]

(* The search runs the verify rung once per kernel set: a hoist, present
   or merge candidate takes its parent's verdict.  That holds because
   verification is blind to data placement: it demotes every transfer,
   feeding each kernel the data the sequential run produced, and the
   sequential run is transparent to directives, so an edit of data
   clauses and data regions leaves both what each kernel runs on and
   what it is compared with as they were.  Every step between the
   original program and the final one is such an edit when no fusion was
   accepted, so the two ends' per-kernel reports must be equal: names,
   occurrences, mismatches, assertion failures and symbolic verdicts. *)
let test_verify_blind_to_placement () =
  let reports tp =
    List.map
      (fun (kr : Openarc_core.Kernel_verify.kernel_report) ->
        let name = kr.kr_kernel.Codegen.Tprog.k_name in
        Fmt.str "@[<v>%s x%d mismatches [%s] assertions [%s]@,%a@]" name
          kr.kr_occurrences
          (String.concat "; "
             (List.map
                (fun (m : Accrt.Value.mismatch) ->
                  Fmt.str "%s %d %Lx %a" m.m_what m.m_count
                    (Int64.bits_of_float m.m_max_diff)
                    Fmt.(Dump.list int)
                    m.m_first_indices)
                kr.kr_mismatches))
          (String.concat "; " kr.kr_assertion_failures)
          (Fmt.option Symeq.Engine.pp_kernel)
          (Option.map
             (fun kv_verdict -> { Symeq.Engine.kv_name = name; kv_verdict })
             kr.kr_symbolic))
      (Openarc_core.Kernel_verify.verify_tprog ~symbolic:true tp)
        .Openarc_core.Kernel_verify.reports
  in
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let prog = Minic.Parser.parse_string ~file:b.name b.source in
      let r = Saturate.run ~name:b.name ~outputs:b.outputs prog in
      Alcotest.(check (list string))
        (b.name ^ ": no fusion accepted") []
        (List.filter_map
           (fun s ->
             if s.Saturate.st_accepted && s.Saturate.st_kind = Saturate.Fuse
             then Some s.Saturate.st_label
             else None)
           r.Saturate.r_steps);
      Alcotest.(check bool) (b.name ^ ": some edit accepted") true
        (r.Saturate.r_accepted > 0);
      let original = reports (Openarc_core.Compiler.compile_program prog) in
      Alcotest.(check bool) (b.name ^ ": some kernel verified") true
        (original <> []);
      Alcotest.(check (list string))
        (b.name ^ ": the final program verifies like the original")
        original
        (reports (Openarc_core.Compiler.compile_program r.Saturate.r_program)))
    Suite.Registry.all

(* A fusion changes kernels, so it runs the verify rung on its own kernel
   set; once accepted, the data-clause edit after it takes that verdict. *)
let test_fusion_verified () =
  let src =
    "int main() { float a[32]; float b[32]; float c[32];\n\
     for (int i = 0; i < 32; i++) { a[i] = i; b[i] = 0.0; c[i] = 0.0; }\n\
     #pragma acc kernels loop\n\
     for (int i = 0; i < 32; i++) { b[i] = a[i] * 2.0; }\n\
     #pragma acc kernels loop\n\
     for (int i = 0; i < 32; i++) { c[i] = a[i] + 1.0; }\n\
     float s = b[3] + c[5];\n\
     return 0; }"
  in
  let r =
    Saturate.run ~name:"unit" ~outputs:[ "b"; "c" ]
      (Minic.Parser.parse_string src)
  in
  Alcotest.(check (list (pair string string)))
    "the fusion, then a pin on the fused kernel"
    [ ("fuse", "accepted"); ("present", "accepted") ]
    (List.map
       (fun s -> (Saturate.kind_name s.Saturate.st_kind, s.Saturate.st_reason))
       r.Saturate.r_steps)

(* One oracle: every checked configuration of every candidate must
   reproduce the original program's tree x1 outputs.  Here the host adds
   the device-set size to an output after the loop, so the original
   program's own outputs differ between device sets, and every candidate
   fails at the first configuration that reads another size, however it
   would compare with the original program run there. *)
let test_one_reference () =
  let src =
    "int main() { " ^ hoistable_loop
    ^ "b[0] = b[0] + acc_get_num_devices(4);\nreturn 0; }"
  in
  let r =
    Saturate.run ~name:"unit" ~outputs:[ "b" ] (Minic.Parser.parse_string src)
  in
  Alcotest.(check bool) "some candidate was tried" true
    (r.Saturate.r_steps <> []);
  List.iter
    (fun s ->
      Alcotest.(check string) s.Saturate.st_label
        "rejected: outputs diverged (compiled engine, 2 device(s))"
        s.Saturate.st_reason)
    r.Saturate.r_steps

let tests =
  [ Alcotest.test_case "search accepts the hoist" `Slow
      test_search_accepts_hoist;
    Alcotest.test_case "canonical JSON report" `Quick test_json_report;
    Alcotest.test_case "measurements run on the tree walker" `Quick
      test_measured_on_tree;
    Alcotest.test_case "report independent of the ladder's work" `Slow
      test_report_independent_of_ladder;
    Alcotest.test_case "ladder requires the one-device run" `Quick
      test_requires_one_device;
    Alcotest.test_case "an unbound output is refused" `Quick
      test_unbound_output;
    Alcotest.test_case "verification is blind to data placement" `Slow
      test_verify_blind_to_placement;
    Alcotest.test_case "a fusion is verified" `Quick test_fusion_verified;
    Alcotest.test_case "one reference for every configuration" `Quick
      test_one_reference ]
