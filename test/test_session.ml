(* Suggestion engine and the interactive optimization session (Figure 2). *)

open Minic

let jacobi =
  "int main() { int n = 64; int iters = 5; float a[n]; float b[n];\nfor \
   (int i = 0; i < n; i++) { a[i] = float(i % 7); b[i] = 0.0; }\nfor (int \
   k = 0; k < iters; k++) {\n#pragma acc kernels loop\nfor (int i = 1; i < \
   n - 1; i++) { b[i] = 0.5 * (a[i-1] + a[i+1]); }\n#pragma acc kernels \
   loop\nfor (int i = 1; i < n - 1; i++) { a[i] = b[i]; }\n}\nfloat cs = \
   0.0;\nfor (int i = 0; i < n; i++) { cs = cs + a[i]; }\nreturn 0; }"

let test_suggestions_from_naive_run () =
  let c = Openarc_core.Compiler.compile jacobi in
  let o = Openarc_core.Compiler.run_instrumented c in
  let suggestions = Openarc_core.Suggest.analyze o in
  let has_region_plan =
    List.exists
      (fun s ->
        match s.Openarc_core.Suggest.s_action with
        | Openarc_core.Suggest.Add_data_region _ -> true
        | _ -> false)
      suggestions
  in
  Alcotest.(check bool) "data-region plan suggested" true has_region_plan

let test_session_converges () =
  let prog = Parser.parse_string jacobi in
  let before, _ = Openarc_core.Session.transfer_stats prog in
  let r = Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ] prog in
  Alcotest.(check bool) "converged" true r.Openarc_core.Session.converged;
  Alcotest.(check bool) "few iterations" true
    (r.Openarc_core.Session.iterations <= 4);
  Alcotest.(check int) "no incorrect suggestions" 0
    r.Openarc_core.Session.incorrect_iterations;
  let after, _ =
    Openarc_core.Session.transfer_stats r.Openarc_core.Session.final
  in
  Alcotest.(check bool) "transfers reduced a lot" true (after * 10 <= before)

let test_session_preserves_outputs () =
  let prog = Parser.parse_string jacobi in
  let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  let r = Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ] prog in
  let env = Typecheck.check r.Openarc_core.Session.final in
  let tp = Codegen.Translate.translate env r.Openarc_core.Session.final in
  let o = Accrt.Interp.run ~coherence:false tp in
  Alcotest.(check bool) "outputs preserved" true
    (Openarc_core.Session.outputs_match ~outputs:[ "a"; "cs" ] ~reference o)

let aliased =
  (* The host reads one of two pointer-swapped buffers at the end: the
     blind may-dead analysis mis-suggests dropping its download; the next
     iteration detects and repairs it (one incorrect iteration). *)
  "int main() { int n = 16; float u[n]; float v[n]; float *p; float *q; \
   float *tp;\nfor (int i = 0; i < n; i++) { u[i] = 1.0; v[i] = 2.0; }\np \
   = u; q = v;\nfor (int k = 0; k < 4; k++) {\n#pragma acc kernels \
   loop\nfor (int i = 0; i < n; i++) { q[i] = p[i] + 1.0; }\ntp = p; p = \
   q; q = tp;\n}\nfloat cs = 0.0;\nfor (int i = 0; i < n; i++) { cs = cs \
   + p[i]; }\nreturn 0; }"

let test_wrong_suggestion_detected () =
  let prog = Parser.parse_string aliased in
  let r = Openarc_core.Session.optimize ~outputs:[ "cs" ] prog in
  Alcotest.(check bool) "converged" true r.Openarc_core.Session.converged;
  Alcotest.(check bool) "incorrect iteration recorded" true
    (r.Openarc_core.Session.incorrect_iterations >= 1);
  (* and the final program is still correct *)
  let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  let env = Typecheck.check r.Openarc_core.Session.final in
  let tp = Codegen.Translate.translate env r.Openarc_core.Session.final in
  let o = Accrt.Interp.run ~coherence:false tp in
  Alcotest.(check bool) "correct after repair" true
    (Openarc_core.Session.outputs_match ~outputs:[ "cs" ] ~reference o)

let test_conservative_policy () =
  let prog = Parser.parse_string aliased in
  let r =
    Openarc_core.Session.optimize ~policy:Openarc_core.Session.Conservative
      ~outputs:[ "cs" ] prog
  in
  (* only certain suggestions applied: no wrong turns at all *)
  Alcotest.(check int) "no incorrect iterations" 0
    r.Openarc_core.Session.incorrect_iterations

let test_already_optimal () =
  let src =
    "int main() { int n = 16; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\n#pragma acc data copy(a)\n{\n#pragma acc kernels \
     loop\nfor (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }\n}\nfloat cs \
     = 0.0;\nfor (int i = 0; i < n; i++) { cs = cs + a[i]; }\nreturn 0; }"
  in
  let r =
    Openarc_core.Session.optimize ~outputs:[ "cs" ]
      (Parser.parse_string src)
  in
  Alcotest.(check int) "single clean iteration" 1
    r.Openarc_core.Session.iterations;
  Alcotest.(check bool) "converged" true r.Openarc_core.Session.converged

let test_defer_suggestion_applied () =
  (* per-iteration download read only after the loop: deferred out *)
  let src =
    "int main() { int n = 16; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 0.0; }\n#pragma acc data copy(a)\n{\nfor (int k = 0; k < 4; \
     k++) {\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { a[i] \
     = a[i] + 1.0; }\n#pragma acc update host(a)\n}\nfloat probe = \
     a[0];\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { a[i] = \
     a[i] + probe; }\n}\nfloat cs = 0.0;\nfor (int i = 0; i < n; i++) { cs \
     = cs + a[i]; }\nreturn 0; }"
  in
  let prog = Parser.parse_string src in
  let before, _ = Openarc_core.Session.transfer_stats prog in
  let r = Openarc_core.Session.optimize ~outputs:[ "cs" ] prog in
  let after, _ =
    Openarc_core.Session.transfer_stats r.Openarc_core.Session.final
  in
  Alcotest.(check bool) "converged" true r.Openarc_core.Session.converged;
  Alcotest.(check bool) "in-loop downloads removed" true (after < before)

let test_session_multi_device () =
  (* The interactive loop runs unchanged on a device set: it converges to
     the same directive structure and the optimized program still
     verifies against the sequential reference. *)
  let prog = Parser.parse_string jacobi in
  let solo = Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ] prog in
  let multi =
    Openarc_core.Session.optimize ~devices:2 ~outputs:[ "a"; "cs" ]
      (Parser.parse_string jacobi)
  in
  Alcotest.(check bool) "converged" true multi.Openarc_core.Session.converged;
  Alcotest.(check int) "same iteration count"
    solo.Openarc_core.Session.iterations
    multi.Openarc_core.Session.iterations;
  Alcotest.(check int) "no incorrect suggestions" 0
    multi.Openarc_core.Session.incorrect_iterations;
  let after_solo, _ =
    Openarc_core.Session.transfer_stats solo.Openarc_core.Session.final
  in
  let after_multi, _ =
    Openarc_core.Session.transfer_stats multi.Openarc_core.Session.final
  in
  Alcotest.(check int) "same final directive structure" after_solo after_multi;
  let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  let env = Typecheck.check multi.Openarc_core.Session.final in
  let tp = Codegen.Translate.translate env multi.Openarc_core.Session.final in
  let o = Accrt.Interp.run ~coherence:false ~devices:2 tp in
  Alcotest.(check bool) "optimized outputs verify on two devices" true
    (Openarc_core.Session.outputs_match ~outputs:[ "a"; "cs" ] ~reference o)

(* ------------------------- telemetry ------------------------------- *)

let test_telemetry_records () =
  let prog = Parser.parse_string jacobi in
  let r = Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ] prog in
  let t = r.Openarc_core.Session.telemetry in
  Alcotest.(check int) "one record per iteration"
    r.Openarc_core.Session.iterations (List.length t);
  List.iteri
    (fun i it ->
      Alcotest.(check int)
        (Fmt.str "record %d is 1-based in order" i)
        (i + 1) it.Openarc_core.Session.it_index;
      Alcotest.(check bool)
        (Fmt.str "record %d has a profile" i)
        true
        (it.Openarc_core.Session.it_profile <> None);
      Alcotest.(check bool)
        (Fmt.str "record %d counts all report kinds" i)
        true
        (List.length it.Openarc_core.Session.it_report_counts = 5))
    t;
  let first = List.hd t and last = List.nth t (List.length t - 1) in
  Alcotest.(check bool) "first iteration applied suggestions" true
    (first.Openarc_core.Session.it_suggestions <> []);
  Alcotest.(check string) "last iteration converged" "converged"
    last.Openarc_core.Session.it_note;
  Alcotest.(check bool) "transfers shrank across the session" true
    (last.Openarc_core.Session.it_transfers
    < first.Openarc_core.Session.it_transfers);
  Alcotest.(check bool) "bytes shrank across the session" true
    (last.Openarc_core.Session.it_bytes
    < first.Openarc_core.Session.it_bytes);
  Alcotest.(check bool) "outputs verified on the last iteration" true
    last.Openarc_core.Session.it_outputs_ok;
  (* log_lines flattens the same events the telemetry carries *)
  Alcotest.(check bool) "log_lines nonempty" true
    (Openarc_core.Session.log_lines r <> [])

let test_telemetry_wrong_suggestion () =
  let prog = Parser.parse_string aliased in
  let r = Openarc_core.Session.optimize ~outputs:[ "cs" ] prog in
  Alcotest.(check bool) "a record names the restored var" true
    (List.exists
       (fun it -> it.Openarc_core.Session.it_wrong_restored <> [])
       r.Openarc_core.Session.telemetry)

let test_session_report () =
  let prog = Parser.parse_string jacobi in
  let r = Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ] prog in
  let report = Openarc_core.Session.report ~name:"jacobi" r in
  let contains ~needle s =
    let n = String.length needle and m = String.length s in
    let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun needle ->
      Alcotest.(check bool)
        (Fmt.str "report mentions %S" needle)
        true
        (contains ~needle report))
    [ "interactive session report for jacobi"; "iteration 1"; "converged";
      "transfers:"; "profile delta" ]

let test_session_to_json () =
  let prog = Parser.parse_string jacobi in
  let r = Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ] prog in
  let v = Obs.Pjson.parse (Openarc_core.Session.to_json ~name:"jacobi" r) in
  Alcotest.(check (option string)) "schema" (Some "openarc.obs.session")
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
  Alcotest.(check (option (float 0.)))
    "schema version"
    (Some (float_of_int Openarc_core.Session.json_version))
    (Option.map Obs.Pjson.num_exn (Obs.Pjson.member "version" v));
  let records =
    Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "records" v))
  in
  Alcotest.(check int) "records match iterations"
    r.Openarc_core.Session.iterations (List.length records);
  (* v2: every record embeds the iteration's data-movement ledger
     summary, and profiling the naive program (iteration 1) must
     surface nonzero waste. *)
  List.iter
    (fun rv ->
      Alcotest.(check bool) "record embeds a ledger summary" true
        (match Obs.Pjson.member "ledger" rv with
        | Some l ->
            Obs.Pjson.member "causes" l <> None
            && Obs.Pjson.member "wasted_bytes" l <> None
            && Obs.Pjson.member "peak_bytes" l <> None
        | None -> false))
    records;
  (match records with
  | first :: _ ->
      let l = Option.get (Obs.Pjson.member "ledger" first) in
      Alcotest.(check bool) "naive run shows wasted bytes" true
        (Obs.Pjson.num_exn (Option.get (Obs.Pjson.member "wasted_bytes" l))
        > 0.0)
  | [] -> Alcotest.fail "no records");
  List.iter
    (fun rv ->
      Alcotest.(check bool) "record embeds a profile doc" true
        (match Obs.Pjson.member "profile" rv with
        | Some p ->
            Obs.Pjson.member "schema" p
            = Some (Obs.Pjson.Str "openarc.obs.profile")
        | None -> false))
    records;
  let deltas =
    Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "deltas" v))
  in
  Alcotest.(check int) "one delta per consecutive profiled pair"
    (max 0 (List.length records - 1))
    (List.length deltas);
  List.iter
    (fun dv ->
      Alcotest.(check bool) "delta is a profile-diff doc" true
        (Obs.Pjson.member "schema" dv
        = Some (Obs.Pjson.Str "openarc.obs.profile-diff")))
    deltas;
  (* deterministic export: same program, same seed, same bytes — modulo
     the statement ids baked into directive labels (the sid counter is
     process-global, so a second in-process session numbers its inserted
     data region differently; across processes the export is
     byte-identical, which the CLI test checks) *)
  let r2 =
    Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ]
      (Parser.parse_string jacobi)
  in
  let normalize s =
    Str.global_replace (Str.regexp "data[0-9]+") "dataN" s
  in
  Alcotest.(check string) "reproducible modulo statement ids"
    (normalize (Openarc_core.Session.to_json ~name:"jacobi" r))
    (normalize (Openarc_core.Session.to_json ~name:"jacobi" r2))

(* One kernel store serves a whole session: its edits touch data clauses
   only, so on every suite program the first iteration's run compiles the
   kernels and every later iteration's profile records cache hits only. *)
let test_session_kernel_store () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let r =
        Openarc_core.Session.optimize ~outputs:b.outputs
          (Parser.parse_string ~file:b.name b.source)
      in
      List.iter
        (fun (it : Openarc_core.Session.iteration) ->
          match it.it_profile with
          | None -> ()
          | Some p ->
              let compiles =
                List.assoc_opt "engine_compiles" p.Obs.Profile.p_counters
              in
              if it.it_index = 1 then
                Alcotest.(check bool)
                  (Fmt.str "%s iteration 1 compiles its kernels" b.name)
                  true (compiles <> None)
              else
                Alcotest.(check (option int))
                  (Fmt.str "%s iteration %d compiles nothing" b.name
                     it.it_index)
                  None compiles)
        r.Openarc_core.Session.telemetry)
    Suite.Registry.all

let tests =
  [ Alcotest.test_case "suggestions from naive run" `Quick
      test_suggestions_from_naive_run;
    Alcotest.test_case "session converges" `Quick test_session_converges;
    Alcotest.test_case "session preserves outputs" `Quick
      test_session_preserves_outputs;
    Alcotest.test_case "wrong suggestion detected and repaired" `Quick
      test_wrong_suggestion_detected;
    Alcotest.test_case "conservative policy" `Quick test_conservative_policy;
    Alcotest.test_case "already optimal" `Quick test_already_optimal;
    Alcotest.test_case "defer suggestion applied" `Quick
      test_defer_suggestion_applied;
    Alcotest.test_case "session on a device set" `Quick
      test_session_multi_device;
    Alcotest.test_case "telemetry records" `Quick test_telemetry_records;
    Alcotest.test_case "telemetry wrong suggestion" `Quick
      test_telemetry_wrong_suggestion;
    Alcotest.test_case "session report" `Quick test_session_report;
    Alcotest.test_case "session to_json" `Quick test_session_to_json;
    Alcotest.test_case "one kernel store per session" `Quick
      test_session_kernel_store ]
