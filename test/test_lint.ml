(* The static linter: unit tests for the diagnostics engine, synthetic
   race/transfer cases with machine-applicable fix-its, the Table II
   detection criterion (all 16 latent + 4 active injected faults), the
   zero-noise criterion on the hand-optimized suite, agreement between the
   static transfer diagnostics and the runtime coherence reports, facts
   wider than one bit-vector word, and golden expected-diagnostic files for
   every suite variant. *)

module Diag = Lint.Diag

let codes ds = List.map (fun d -> d.Diag.code) ds

let with_code code ds = List.filter (fun d -> d.Diag.code = code) ds

let race_codes ds =
  List.filter
    (fun c -> String.length c >= 8 && String.sub c 0 8 = "ACC-RACE")
    (codes ds)

(* Lint a source string as [openarc lint] does: [fault] strips the
   private/reduction clauses and turns automatic recognition off. *)
let lint ?opts ?(fault = false) ?(file = "<input>") src =
  let prog = Minic.Parser.parse_string ~file src in
  if fault then
    Lint.run_program ~opts:Codegen.Options.fault_injection
      (Openarc_core.Faults.strip_parallelism_clauses prog)
  else Lint.run_program ?opts prog

(* --------------------------- diag engine ---------------------------- *)

let loc_at line col =
  { Minic.Loc.file = "t.c"; line; col }

let d1 = Diag.mk ~var:"x" ~code:"ACC-RACE-001" ~severity:Diag.Error
    ~loc:(loc_at 3 1) "msg \"quoted\"\nsecond"

let d2 = Diag.mk ~code:"ACC-XFER-004" ~severity:Diag.Warning
    ~loc:(loc_at 2 5) ~site:"update0.host(b)" "redundant"

let d3 = Diag.mk ~code:"ACC-XFER-005" ~severity:Diag.Info
    ~loc:(loc_at 2 5) "maybe"

let test_severity () =
  Alcotest.(check bool) "error reaches warning" true
    (Diag.at_least Diag.Warning Diag.Error);
  Alcotest.(check bool) "info below warning" false
    (Diag.at_least Diag.Warning Diag.Info);
  Alcotest.(check int) "filter at warning" 2
    (List.length (Diag.filter ~threshold:Diag.Warning [ d1; d2; d3 ]));
  Alcotest.(check int) "filter at info keeps all" 3
    (List.length (Diag.filter ~threshold:Diag.Info [ d1; d2; d3 ]));
  Alcotest.(check (option string)) "worst" (Some "error")
    (Option.map Diag.severity_name (Diag.worst [ d2; d3; d1 ]));
  Alcotest.(check (option string)) "worst of none" None
    (Option.map Diag.severity_name (Diag.worst []))

let test_sort () =
  (* by location first, then code *)
  Alcotest.(check (list string)) "sorted order"
    [ "ACC-XFER-004"; "ACC-XFER-005"; "ACC-RACE-001" ]
    (codes (Diag.sort [ d1; d3; d2 ]))

let contains ~needle hay =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  n = 0 || go 0

let test_json () =
  let j = Diag.to_json [ d1 ] in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("json contains " ^ needle) true
        (contains ~needle j))
    [ {|"code": "ACC-RACE-001"|}; {|"severity": "error"|}; {|"line": 3|};
      {|"var": "x"|}; {|\"quoted\"|}; {|\n|} ]

(* --------------------- synthetic race programs ---------------------- *)

let racy_private = {|
int main() {
  int n = 16;
  float a[n];
  float b[n];
  float t;
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n; i++) {
    t = a[i] * 2.0;
    b[i] = t + 1.0;
  }
  return 0;
}
|}

let racy_reduction = {|
int main() {
  int n = 16;
  float a[n];
  float s = 0.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return 0;
}
|}

let carried_scalar = {|
int main() {
  int n = 16;
  float a[n];
  float b[n];
  float s = 1.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n; i++) {
    s = s * 0.5 + a[i];
    b[i] = s;
  }
  return 0;
}
|}

let invariant_write = {|
int main() {
  int n = 16;
  float a[n];
  float c[n];
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n; i++) { c[0] = a[i]; }
  return 0;
}
|}

let shifted_read = {|
int main() {
  int n = 16;
  float a[n];
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc kernels loop gang worker
  for (int i = 0; i < n - 1; i++) { a[i] = a[i + 1] * 0.5; }
  return 0;
}
|}

(* Apply the first fix-it for [code] and re-lint: the diagnostic must be
   gone and no new >=warning race diagnostic may appear.  Returns the
   re-linted diagnostics. *)
let check_fixit_resolves ~opts ~code src =
  let prog = Minic.Parser.parse_string ~file:"t.c" src in
  let ds = Lint.run_program ~opts prog in
  let d =
    match with_code code ds with
    | d :: _ -> d
    | [] -> Alcotest.failf "expected a %s diagnostic" code
  in
  let fixit =
    match d.Diag.fixit with
    | Some f -> f
    | None -> Alcotest.failf "%s carries no fix-it" code
  in
  let fixed = Diag.apply_fixit prog fixit in
  let ds' = Lint.run_program ~opts fixed in
  Alcotest.(check (list string)) (code ^ " resolved by its fix-it") []
    (codes (with_code code ds'));
  (* the clause edit must not introduce any other race finding (transfer
     diagnostics may shift: a privatized scalar is no longer copied) *)
  Alcotest.(check (list string)) ("no new race findings after fixing " ^ code)
    [] (race_codes (Diag.filter ~threshold:Diag.Warning ds'));
  ds'

let test_missing_private () =
  let opts = Codegen.Options.fault_injection in
  let ds = lint ~opts racy_private in
  Alcotest.(check int) "one RACE-001" 1 (List.length (with_code "ACC-RACE-001" ds));
  let d = List.hd (with_code "ACC-RACE-001" ds) in
  Alcotest.(check (option string)) "on t" (Some "t") d.Diag.var;
  ignore (check_fixit_resolves ~opts ~code:"ACC-RACE-001" racy_private);
  (* with automatic recognition the same scalar is only an info note *)
  Alcotest.(check (list string)) "auto-privatized: info note only"
    [ "ACC-RACE-010" ] (race_codes (lint racy_private))

let test_missing_reduction () =
  let opts = Codegen.Options.fault_injection in
  let ds = lint ~opts racy_reduction in
  Alcotest.(check int) "one RACE-002" 1
    (List.length (with_code "ACC-RACE-002" ds));
  ignore (check_fixit_resolves ~opts ~code:"ACC-RACE-002" racy_reduction);
  Alcotest.(check (list string)) "auto-recognized: info note only"
    [ "ACC-RACE-011" ] (race_codes (lint racy_reduction))

let test_carried_scalar () =
  (* neither privatizable nor an accumulator: an error even with every
     automatic recognition enabled *)
  let ds = lint carried_scalar in
  Alcotest.(check int) "one RACE-005" 1
    (List.length (with_code "ACC-RACE-005" ds));
  Alcotest.(check (option string)) "on s" (Some "s")
    (List.hd (with_code "ACC-RACE-005" ds)).Diag.var

let test_array_conflicts () =
  let ds = lint invariant_write in
  Alcotest.(check int) "invariant write: one RACE-003" 1
    (List.length (with_code "ACC-RACE-003" ds));
  let ds = lint shifted_read in
  Alcotest.(check int) "shifted read: one RACE-004" 1
    (List.length (with_code "ACC-RACE-004" ds));
  Alcotest.(check (option string)) "on a" (Some "a")
    (List.hd (with_code "ACC-RACE-004" ds)).Diag.var

(* An array a kernel declares is one per thread: it races with no other
   iteration, and it is no transfer.  One the kernel reaches through a
   pointer it declares is the host's, and shared. *)
let kernel_local_array = {|
int main() {
  int n = 8; int m = 2;
  float a[n];
  #pragma acc kernels loop copy(a)
  for (int i = 0; i < n; i++) { float tmp[m]; tmp[0] = 1.0; a[i] = tmp[0]; }
  return 0;
}
|}

let kernel_local_pointer = {|
int main() {
  int n = 8;
  float a[n];
  #pragma acc kernels loop copy(a)
  for (int i = 0; i < n; i++) { float *q = a; q[0] = float(i); }
  return 0;
}
|}

let test_kernel_local_arrays () =
  let ds = lint kernel_local_array in
  Alcotest.(check (list string)) "local array: no race" [] (race_codes ds);
  Alcotest.(check int) "local array: nothing on tmp" 0
    (List.length (List.filter (fun d -> d.Diag.var = Some "tmp") ds));
  Alcotest.(check (list (option string))) "local pointer: a shared write"
    [ Some "q" ]
    (List.map
       (fun d -> d.Diag.var)
       (with_code "ACC-RACE-003" (lint kernel_local_pointer)))

(* ------------------- synthetic transfer programs -------------------- *)

let missing_transfer = {|
int main() {
  int n = 8;
  float a[n];
  float s = 0.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc data create(a)
  {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  }
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return 0;
}
|}

let redundant_update = {|
int main() {
  int n = 8;
  float a[n];
  float s = 0.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc data copy(a)
  {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    #pragma acc update host(a)
    #pragma acc update host(a)
  }
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return 0;
}
|}

(* The host needs [a] once, inside the region: the second update is
   redundant, and the region's copyout is not (a later kernel writes [a]). *)
let repeated_update = {|
int main() {
  int n = 8;
  float a[n];
  float s = 0.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc data copy(a)
  {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }
    #pragma acc update host(a)
    #pragma acc update host(a)
    for (int i = 0; i < n; i++) { s = s + a[i]; }
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  }
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return 0;
}
|}

let incorrect_update = {|
int main() {
  int n = 8;
  float a[n];
  float b[n];
  for (int i = 0; i < n; i++) { a[i] = float(i); }
  #pragma acc data copyin(a) copyout(b)
  {
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
    #pragma acc update device(a)
    #pragma acc kernels loop gang worker
    for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }
  }
  float s = 0.0;
  for (int i = 0; i < n; i++) { s = s + a[i]; }
  return 0;
}
|}

let test_missing_transfer () =
  let ds = lint missing_transfer in
  Alcotest.(check bool) "XFER-001 on a" true
    (List.exists (fun d -> d.Diag.var = Some "a")
       (with_code "ACC-XFER-001" ds))

let test_redundant_update () =
  let ds = with_code "ACC-XFER-004" (lint redundant_update) in
  let on_update =
    List.filter
      (fun d ->
        match d.Diag.site with
        | Some s -> Openarc_core.Suggest.site_kind s = `Update
        | None -> false)
      ds
  in
  Alcotest.(check bool) "XFER-004 on the second update host" true
    (List.exists
       (fun d ->
         match d.Diag.fixit with
         | Some (Diag.Fix_remove_update_var { host = true; var = "a"; _ }) ->
             true
         | _ -> false)
       on_update);
  (* removing the only variable of an update removes the directive: the
     fixed program validates and lints clean *)
  let ds' =
    check_fixit_resolves ~opts:Codegen.Options.default ~code:"ACC-XFER-004"
      repeated_update
  in
  Alcotest.(check (list string)) "repeated update: clean after its fix-it" []
    (codes (Diag.filter ~threshold:Diag.Warning ds'))

let test_incorrect_update () =
  let ds = lint incorrect_update in
  Alcotest.(check bool) "XFER-003 on a" true
    (List.exists (fun d -> d.Diag.var = Some "a")
       (with_code "ACC-XFER-003" ds))

(* ------------------------- Table II faults -------------------------- *)

(* Under the fault-injection experiment (private/reduction clauses
   stripped, recognition disabled) the detector must flag every injected
   fault: distinct kernels with a RACE-001 are exactly Table II's
   private-data kernels (latent under register promotion), kernels with a
   RACE-002 exactly its reduction kernels (active races). *)
let test_table2 () =
  let latent_total = ref 0 and active_total = ref 0 in
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let ds = lint ~fault:true ~file:b.name b.source in
      let kernels_with code =
        List.length
          (List.sort_uniq compare
             (List.map (fun d -> d.Diag.loc) (with_code code ds)))
      in
      let latent = kernels_with "ACC-RACE-001" in
      let active = kernels_with "ACC-RACE-002" in
      Alcotest.(check int) (b.name ^ ": latent faults flagged")
        b.expected_private latent;
      Alcotest.(check int) (b.name ^ ": active faults flagged")
        b.expected_reduction active;
      latent_total := !latent_total + latent;
      active_total := !active_total + active)
    Suite.Registry.all;
  Alcotest.(check int) "16 latent faults across the suite" 16 !latent_total;
  Alcotest.(check int) "4 active faults across the suite" 4 !active_total

(* ------------------------ suite cleanliness ------------------------- *)

(* The hand-optimized variants are the paper's end state: the linter must
   be silent on them at the default (warning) threshold.  The unoptimized
   sources are correct programs too — merely slow — so they carry no race
   findings, only redundant-transfer warnings (the tool's optimization
   opportunities, section III-B). *)
let test_suite_clean () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let at_warning src =
        codes (Diag.filter ~threshold:Diag.Warning (lint ~file:b.name src))
      in
      Alcotest.(check (list string))
        (b.name ^ " optimized: no findings at default severity") []
        (at_warning b.optimized);
      Alcotest.(check (list string))
        (b.name ^ " source: only transfer warnings") []
        (List.filter
           (fun c -> not (contains ~needle:"XFER" c))
           (at_warning b.source)))
    Suite.Registry.all

(* ------------------ static vs runtime cross-check ------------------- *)

let kind_of_code = function
  | "ACC-XFER-001" -> Some Accrt.Coherence.Missing
  | "ACC-XFER-003" -> Some Accrt.Coherence.Incorrect
  | "ACC-XFER-004" -> Some Accrt.Coherence.Redundant
  | _ -> None

(* Every definite static claim (missing / incorrect / redundant transfer)
   must be confirmed by the runtime coherence checker: same kind, same
   variable, same instrumentation site (paper section III-B). *)
let test_runtime_agreement () =
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      List.iter
        (fun (vname, src) ->
          let tp = Openarc_core.Compiler.compile ~file:b.name src in
          let ds = Lint.Xfer.analyze tp in
          let o =
            Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached
              (Codegen.Checkgen.instrument tp)
          in
          let reports = Accrt.Interp.reports o in
          let confirmed d =
            match kind_of_code d.Diag.code with
            | None -> true
            | Some k ->
                List.exists
                  (fun r ->
                    r.Accrt.Coherence.r_kind = k
                    && Some r.Accrt.Coherence.r_var = d.Diag.var
                    && (match (d.Diag.site, r.Accrt.Coherence.r_site) with
                       | None, _ -> true
                       | Some s, Some rs ->
                           rs.Codegen.Tprog.site_label = s
                       | Some _, None -> false))
                  reports
          in
          let unmatched = List.filter (fun d -> not (confirmed d)) ds in
          Alcotest.(check (list string))
            (Fmt.str "%s %s: every definite static claim has a runtime report"
               b.name vname)
            [] (codes unmatched))
        [ ("source", b.source); ("opt", b.optimized) ])
    Suite.Registry.all

(* ------------------------- multi-word facts ------------------------- *)

(* [k] independent JACOBI-style blocks, each over its own arrays [a<i>] and
   [b<i>]: past 63 tracked arrays the dataflow facts span several words,
   which no suite program reaches (CFD tracks 13). *)
let jacobi_blocks k =
  let block i =
    String.concat (string_of_int i)
      (String.split_on_char '@'
         "float a@[n];\nfloat b@[n];\nfor (int i = 0; i < n; i++) { a@[i] = \
          float(i % 13) * 0.25 + 1.0; b@[i] = 0.0; }\nfor (int t = 0; t < \
          3; t++) {\n#pragma acc kernels loop\nfor (int i = 1; i < n - 1; \
          i++) { b@[i] = 0.5 * (a@[i - 1] + a@[i + 1]); }\n#pragma acc \
          kernels loop\nfor (int i = 1; i < n - 1; i++) { a@[i] = b@[i]; \
          }\n#pragma acc update host(b@)\n}\n")
  in
  "int main() { int n = 16;\n" ^ String.concat "" (List.init k block)
  ^ "return 0; }"

let histogram ds =
  List.map
    (fun c -> (c, List.length (with_code c ds)))
    (List.sort_uniq compare (codes ds))

let test_multi_word () =
  let k = 70 in
  let one = jacobi_blocks 1 and many = jacobi_blocks k in
  let tp = Openarc_core.Compiler.compile many in
  Alcotest.(check bool) "more than 128 tracked arrays (3+ words)" true
    (Analysis.Varset.cardinal tp.Codegen.Tprog.tracked > 128);
  let checks src =
    Codegen.Tprog.count_checks
      (Codegen.Checkgen.instrument (Openarc_core.Compiler.compile src))
  in
  Alcotest.(check int) "checks scale with the blocks" (k * checks one)
    (checks many);
  let one_h = histogram (lint one) in
  Alcotest.(check bool) "one block has findings" true (one_h <> []);
  Alcotest.(check (list (pair string int)))
    "lint histogram scales with the blocks"
    (List.map (fun (c, n) -> (c, k * n)) one_h)
    (histogram (lint many))

(* --------------------------- blocks add up -------------------------- *)

(* Checks of each kind: read, write, reset. *)
let check_kinds tp =
  let r = ref 0 and w = ref 0 and z = ref 0 in
  Codegen.Tprog.iter tp (fun s ->
      match s.Codegen.Tprog.tkind with
      | Codegen.Tprog.Tcheck (Check_read _) -> incr r
      | Tcheck (Check_write _) -> incr w
      | Tcheck (Reset_status _) -> incr z
      | _ -> ());
  (!r, !w, !z)

(* The words of facts [instrument]'s seven solves and the transfer lint's
   two keep: each copy's arrays stay within its own regions, so they grow
   by one copy's words per copy (plus the shared entry and exit), where
   dense rows of every array at every node grow as [k]². *)
let solve_words tp =
  (Codegen.Checkgen.solve_words tp, Lint.Xfer.solve_words tp)

(* Slack for the words of the nodes every copy shares. *)
let shared_words = 16

(* [Suite.Blocks.three k]: the copies share nothing, so every count is [k]
   times one copy's (read/write/reset checks 6/8/3 optimized and 7/8/3
   naive; 9 ACC-XFER-004 and 2 ACC-XFER-005).  At [k = 40] the 200
   tracked arrays span 4 words and the transfer lint's stale bits 7, so a
   row or word offset shows. *)
let test_blocks_add_up () =
  let triple = Alcotest.(triple int int int) in
  let one_instrument, one_lint =
    solve_words (Openarc_core.Compiler.compile (Suite.Blocks.three 1))
  in
  let linear what k one got =
    Alcotest.(check bool)
      (Fmt.str "k=%d: %s's solves keep %d words, at most %d x %d + %d" k
         what got k one shared_words)
      true
      (got <= (k * one) + shared_words)
  in
  List.iter
    (fun k ->
      let src = Suite.Blocks.three k in
      let tp = Openarc_core.Compiler.compile src in
      let instrument_words, lint_words = solve_words tp in
      linear "instrument" k one_instrument instrument_words;
      linear "the transfer lint" k one_lint lint_words;
      Alcotest.(check int) (Fmt.str "k=%d: tracked arrays" k) (5 * k)
        (Analysis.Varset.cardinal tp.Codegen.Tprog.tracked);
      let kinds mode = check_kinds (Codegen.Checkgen.instrument ~mode tp) in
      Alcotest.check triple (Fmt.str "k=%d: optimized checks" k)
        (6 * k, 8 * k, 3 * k)
        (kinds Codegen.Checkgen.Optimized);
      Alcotest.check triple (Fmt.str "k=%d: naive checks" k)
        (7 * k, 8 * k, 3 * k)
        (kinds Codegen.Checkgen.Naive);
      Alcotest.(check (list (pair string int)))
        (Fmt.str "k=%d: transfer findings" k)
        [ ("ACC-XFER-004", 9 * k); ("ACC-XFER-005", 2 * k) ]
        (List.filter
           (fun (c, _) -> String.length c > 8 && String.sub c 0 8 = "ACC-XFER")
           (histogram (lint src))))
    [ 1; 8; 40 ]

(* --------------------------- golden files --------------------------- *)

(* Expected diagnostics (all severities) for every suite program's source,
   hand-optimized and Table II fault builds, kept under test/golden/ and
   rendered by [Goldens].  Regenerate with [dune exec test/gen_golden.exe]
   from the repository root after an intentional behavior change. *)

let golden_case (b : Suite.Bench_def.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      List.iter
        (fun (name, render) ->
          Alcotest.(check string)
            (Fmt.str "%s matches its golden diagnostics" name)
            (Goldens.read name) (render ()))
        (Goldens.lint_files b))

let tests =
  [ Alcotest.test_case "diag severity+filter" `Quick test_severity;
    Alcotest.test_case "diag sort" `Quick test_sort;
    Alcotest.test_case "diag json" `Quick test_json;
    Alcotest.test_case "missing private" `Quick test_missing_private;
    Alcotest.test_case "missing reduction" `Quick test_missing_reduction;
    Alcotest.test_case "carried scalar" `Quick test_carried_scalar;
    Alcotest.test_case "array conflicts" `Quick test_array_conflicts;
    Alcotest.test_case "kernel-local arrays" `Quick test_kernel_local_arrays;
    Alcotest.test_case "missing transfer" `Quick test_missing_transfer;
    Alcotest.test_case "redundant update" `Quick test_redundant_update;
    Alcotest.test_case "incorrect update" `Quick test_incorrect_update;
    Alcotest.test_case "Table II faults all flagged" `Quick test_table2;
    Alcotest.test_case "suite clean at default severity" `Quick
      test_suite_clean;
    Alcotest.test_case "static claims confirmed at runtime" `Quick
      test_runtime_agreement;
    Alcotest.test_case "multi-word facts scale per block" `Quick
      test_multi_word;
    Alcotest.test_case "blocks add up" `Quick test_blocks_add_up ]
  @ List.map golden_case Suite.Registry.all
