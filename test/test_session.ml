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
  let o =
    Accrt.Interp.run ~coherence:true
      (Codegen.Checkgen.instrument (Openarc_core.Compiler.compile jacobi))
  in
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
  (* deterministic export: same program, same seed, same bytes, the
     labels of inserted data regions included (ids belong to the
     program, so a second session in the same process numbers them
     alike) *)
  let r2 =
    Openarc_core.Session.optimize ~outputs:[ "a"; "cs" ]
      (Parser.parse_string jacobi)
  in
  Alcotest.(check string) "reproducible byte for byte"
    (Openarc_core.Session.to_json ~name:"jacobi" r)
    (Openarc_core.Session.to_json ~name:"jacobi" r2)

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

(* A kernel rewrites a copied-in array that a later kernel reads: the
   first profiled run matches the reference, then the removal the loop
   applies breaks the outputs and no later edit repairs them.  The loop
   stops without converging, and must hand back a program whose outputs
   still match — not the last, broken one. *)
let device_written_input =
  "int main() { int n = 8; float a[n]; float b[n]; float s = 0.0;\nfor \
   (int q = 0; q < n; q++) { a[q] = 1.0; b[q] = 0.0; }\n#pragma acc data \
   copyin(a) copy(b)\n{\n#pragma acc kernels\n{ a[0] = 5.0; }\n#pragma acc \
   kernels loop gang worker\nfor (int i = 0; i < 5; i++) { b[i] = \
   float(a[0]); s = s + 1.0; }\n}\nreturn 0; }"

let test_unconverged_final_matches () =
  let prog = Parser.parse_string device_written_input in
  let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  let outputs = [ "s"; "b" ] in
  let r = Openarc_core.Session.optimize ~outputs prog in
  Alcotest.(check bool) "not converged" false r.Openarc_core.Session.converged;
  Alcotest.(check bool) "some iteration diverged" true
    (List.exists
       (fun it -> not it.Openarc_core.Session.it_outputs_ok)
       r.Openarc_core.Session.telemetry);
  let final = r.Openarc_core.Session.final in
  let tp = Codegen.Translate.translate (Typecheck.check final) final in
  Alcotest.(check bool) "final program's outputs match" true
    (Openarc_core.Session.outputs_match ~outputs ~reference
       (Accrt.Interp.run ~coherence:false tp));
  Alcotest.(check (pair int int)) "final keeps the input's transfers"
    (Openarc_core.Session.transfer_stats prog)
    (Openarc_core.Session.transfer_stats final)

(* [create(b)] never copies [b] back, so the host computes [c[i] = b[i] /
   b[i]] from zeros: every [c[i]] is NaN where the sequential reference
   has 1.0.  A NaN never passes for a finite value, but matches a NaN. *)
let nan_outputs =
  "int main() { int n = 4; float a[n]; float b[n]; float c[n];\nfor (int i \
   = 0; i < n; i++) { a[i] = float(i + 1); b[i] = 0.0; }\n#pragma acc data \
   copyin(a) create(b)\n{\n#pragma acc kernels loop gang worker\nfor (int \
   i = 0; i < n; i++) { b[i] = a[i]; }\n}\nfor (int i = 0; i < n; i++) { \
   c[i] = b[i] / b[i]; }\nreturn 0; }"

let test_nan_outputs_diverge () =
  let prog = Parser.parse_string nan_outputs in
  let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  let o =
    Accrt.Interp.run ~coherence:false
      (Openarc_core.Compiler.compile_program prog)
  in
  let env = o.Accrt.Interp.ctx.Accrt.Eval.env in
  let c = Accrt.Value.array_buf env "c" in
  Alcotest.(check bool) "every c[i] is NaN" true
    (List.for_all
       (fun i -> Float.is_nan (Gpusim.Buf.get_float c i))
       (List.init (Gpusim.Buf.length c) Fun.id));
  Alcotest.(check bool) "NaN outputs diverge from the reference" false
    (Openarc_core.Session.outputs_match ~outputs:[ "c" ] ~reference o);
  Alcotest.(check bool) "NaN outputs match themselves" true
    (Openarc_core.Session.outputs_match ~outputs:[ "c" ] ~reference:env o);
  let r = Openarc_core.Session.optimize ~outputs:[ "c" ] prog in
  Alcotest.(check bool) "iteration 1 diverged" false
    (List.hd r.Openarc_core.Session.telemetry).Openarc_core.Session
      .it_outputs_ok

(* An output the program never binds would make every iteration diverge:
   the session rejects it up front, naming it. *)
let test_unknown_output () =
  let prog = Parser.parse_string jacobi in
  match Openarc_core.Session.optimize ~outputs:[ "a"; "nosuch" ] prog with
  | _ -> Alcotest.fail "an unbound output was accepted"
  | exception Failure m ->
      Alcotest.(check string) "names the output"
        "output 'nosuch' is not a variable of the program" m

(* An update whose clause names a pointer ([p] aliases [a]) reports its
   site by the root [a]; removing it must address [p], the name the clause
   gives, or the edit matches nothing and the session repeats it. *)
let pointer_update clause =
  Fmt.str
    "int main() { int n = 64; float a[n]; float b[n]; float *p = a;\nfor \
     (int i = 0; i < n; i++) { a[i] = float(i); b[i] = 0.0; }\n#pragma acc \
     data copyin(a) copy(b)\n{\nfor (int t = 0; t < 3; t++) {\n#pragma acc \
     update device(%s[0:n])\n#pragma acc kernels loop\nfor (int i = 0; i < \
     n; i++) { b[i] = b[i] + a[i]; }\n}\n}\nfloat s = 0.0;\nfor (int i = \
     0; i < n; i++) { s = s + b[i]; }\nreturn 0; }"
    clause

let test_pointer_clause () =
  List.iter
    (fun clause ->
      let prog = Parser.parse_string (pointer_update clause) in
      let r = Openarc_core.Session.optimize ~outputs:[ "s" ] prog in
      Alcotest.(check bool) (clause ^ ": converged") true
        r.Openarc_core.Session.converged;
      Alcotest.(check int) (clause ^ ": two iterations") 2
        r.Openarc_core.Session.iterations;
      Alcotest.(check (pair int int))
        (clause ^ ": the update is gone")
        (3, 1536)
        (Openarc_core.Session.transfer_stats r.Openarc_core.Session.final);
      match r.Openarc_core.Session.telemetry with
      | it :: _ ->
          Alcotest.(check (list string))
            (clause ^ ": the suggestion names the root")
            [ "all 3 executions of update0.device(a) are redundant: remove \
               a from the update directive" ]
            (List.map fst it.Openarc_core.Session.it_suggestions)
      | [] -> Alcotest.fail "no iterations")
    [ "p"; "a" ]

(* A batch of edits that changes nothing, or that rebuilds a program the
   session already reverted, would repeat until [max_iterations]: the
   session stops there, not converged, naming what it could not apply. *)
let stuck_region =
  "int main() { int n = 64; float a[n]; float b[n];\nfor (int i = 0; i < \
   n; i++) { a[i] = float(i); b[i] = 1.0; }\n#pragma acc data copy(a)\n{\n\
   #pragma acc kernels loop\nfor (int i = 0; i < n; i++) { a[i] = a[i] * \
   2.0; }\n}\nfor (int t = 0; t < 4; t++) {\n#pragma acc kernels loop\nfor \
   (int i = 0; i < n; i++) { b[i] = b[i] + 1.0; }\n}\nfloat s = 0.0;\nfor \
   (int i = 0; i < n; i++) { s = s + b[i] + a[i]; }\nreturn 0; }"

let unread_outputs =
  "int main() { int n = 64; float y[n]; float z[n];\nfor (int i = 0; i < \
   n; i++) { y[i] = float(i); z[i] = 1.0; }\n#pragma acc kernels loop \
   copy(y)\nfor (int i = 0; i < n; i++) { y[i] = y[i] * 2.0; }\n#pragma acc \
   kernels loop copy(z)\nfor (int i = 0; i < n; i++) { z[i] = z[i] + 1.0; \
   }\nreturn 0; }"

let test_stuck_sessions () =
  List.iter
    (fun (what, src, outputs, iterations, incorrect, texts) ->
      let r =
        Openarc_core.Session.optimize ~outputs (Parser.parse_string src)
      in
      Alcotest.(check bool) (what ^ ": not converged") false
        r.Openarc_core.Session.converged;
      Alcotest.(check (pair int int))
        (what ^ ": iterations, incorrect")
        (iterations, incorrect)
        ( r.Openarc_core.Session.iterations,
          r.Openarc_core.Session.incorrect_iterations );
      let last = List.hd (List.rev r.Openarc_core.Session.telemetry) in
      Alcotest.(check string) (what ^ ": the note names the suggestions")
        ("not converged: could not apply " ^ String.concat "; " texts)
        last.Openarc_core.Session.it_note)
    [ ( "an existing data region", stuck_region, [ "s" ], 1, 0,
        [ "the default per-kernel copies of {b} are largely redundant: \
           manage them with an enclosing data region (copy(b))" ] );
      ( "outputs the host never reads", unread_outputs, [ "y"; "z" ], 3, 1,
        [ "the exit copy of z at region boundary is redundant: weaken its \
           data clause";
          "the exit copy of y at region boundary is redundant: weaken its \
           data clause" ] ) ]

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
      test_session_kernel_store;
    Alcotest.test_case "unconverged session keeps matching program" `Quick
      test_unconverged_final_matches;
    Alcotest.test_case "unknown output rejected" `Quick test_unknown_output;
    Alcotest.test_case "NaN outputs diverge" `Quick test_nan_outputs_diverge;
    Alcotest.test_case "clause names a pointer" `Quick test_pointer_clause;
    Alcotest.test_case "stuck sessions stop" `Quick test_stuck_sessions ]
