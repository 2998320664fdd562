(* Integration tests of the openarc CLI binary: each subcommand runs on a
   bundled benchmark, exits cleanly, and prints its key artifacts. *)

let exe = "../bin/openarc.exe"

let available = Sys.file_exists exe

let run_cmd args =
  let out = Filename.temp_file "openarc_cli" ".out" in
  let cmd = Fmt.str "%s %s > %s 2>&1" exe args (Filename.quote out) in
  let code = Sys.command cmd in
  let ic = open_in_bin out in
  let n = in_channel_length ic in
  let text = really_input_string ic n in
  close_in ic;
  Sys.remove out;
  (code, text)

(* Like [run_cmd], with stdout and stderr kept apart. *)
let run_split args =
  let out = Filename.temp_file "openarc_cli" ".out" in
  let err = Filename.temp_file "openarc_cli" ".err" in
  let code =
    Sys.command
      (Fmt.str "%s %s > %s 2> %s" exe args (Filename.quote out)
         (Filename.quote err))
  in
  let read path = In_channel.with_open_bin path In_channel.input_all in
  let stdout_text = read out and stderr_text = read err in
  Sys.remove out;
  Sys.remove err;
  (code, stdout_text, stderr_text)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let with_source src f =
  let path = Filename.temp_file "openarc_cli" ".c" in
  let oc = open_out path in
  output_string oc src;
  close_out oc;
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () ->
      f (Filename.quote path))

let check_cmd name args ~expect =
  if not available then ()
  else begin
    let code, out = run_cmd args in
    Alcotest.(check int) (name ^ ": exit code") 0 code;
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Fmt.str "%s: output mentions %S" name needle)
          true (contains ~needle out))
      expect
  end

let test_benchmarks () =
  check_cmd "benchmarks" "benchmarks" ~expect:[ "JACOBI"; "CG"; "SRAD" ]

let test_compile () =
  check_cmd "compile" "compile bench:ep" ~expect:[ "main_kernel0"; "seeds" ];
  check_cmd "compile --emit-cuda" "compile bench:ep --emit-cuda"
    ~expect:[ "__global__ void main_kernel0"; "reduction(+)" ]

let test_run () =
  check_cmd "run" "run bench:jacobi"
    ~expect:[ "launches"; "Mem Transfer" ];
  check_cmd "run --instrument" "run bench:jacobi --instrument"
    ~expect:[ "report(s), grouped:"; "redundant"; "suggestions:" ];
  check_cmd "run --fine-grained" "run bench:jacobi --instrument --fine-grained"
    ~expect:[ "report(s), grouped:" ]

let test_verify () =
  check_cmd "verify ok" "verify bench:jacobi"
    ~expect:[ "[OK]   main_kernel0"; "0 kernel(s) with detected errors" ];
  check_cmd "verify fault" "verify bench:ep --fault-injection"
    ~expect:[ "[FAIL] main_kernel1"; "1 kernel(s) with detected errors" ];
  check_cmd "verify selection"
    "verify bench:ep --fault-injection --options \
     complement=0,kernels=main_kernel0"
    ~expect:[ "[OK]   main_kernel0" ];
  check_cmd "verify demotion" "verify bench:jacobi --show-transformed \
                               main_kernel0"
    ~expect:[ "async(1)"; "#pragma acc wait(1)" ];
  (* The sequential sum overflows to +inf; the raced kernel's does not.
     A finite result never matches an infinite reference. *)
  with_source
    "int main() { int n = 3; float a[n]; float s = 0.0;\n\
     a[0] = 1e308; a[1] = 1e308; a[2] = 1.0;\n\
     #pragma acc kernels loop gang worker reduction(+:s)\n\
     for (int i = 0; i < n; i++) { s = s + a[i]; }\n\
     return 0; }\n"
    (fun path ->
      check_cmd "verify overflowing sum" ("verify " ^ path)
        ~expect:[ "[OK]   main_kernel0"; "0 kernel(s) with detected errors" ];
      check_cmd "verify overflowing sum, raced"
        ("verify --fault-injection " ^ path)
        ~expect:
          [ "[FAIL] main_kernel0";
            "s: 1 element(s) differ, max |diff| = inf" ])

let test_verify_symbolic () =
  check_cmd "verify --symbolic" "verify bench:jacobi --symbolic"
    ~expect:
      [ "[PROVED]"; "2 proved, 0 disproved, 0 unknown";
        "[symbolically proved]"; "0 kernel(s) with detected errors" ];
  check_cmd "verify --symbolic fault" "verify bench:ep --fault-injection \
                                       --symbolic"
    ~expect:[ "[DISPROVED]"; "[FAIL] main_kernel1" ];
  if available then begin
    let json = Filename.temp_file "openarc_symeq" ".json" in
    let code, _ =
      run_cmd
        (Fmt.str "verify bench:jacobi --symeq-json %s"
           (Filename.quote json))
    in
    Alcotest.(check int) "verify --symeq-json: exit 0" 0 code;
    let ic = open_in_bin json in
    let doc = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove json;
    Alcotest.(check bool) "symeq json: schema" true
      (contains ~needle:"\"schema\": \"openarc.obs.symeq\"" doc);
    (* the document is the canonical one: it parses and round-trips *)
    match Symeq.Report.of_json doc with
    | Error e -> Alcotest.fail ("symeq json rejected: " ^ e)
    | Ok t ->
        Alcotest.(check int) "symeq json: all kernels proved"
          (List.length t.Symeq.Report.result.Symeq.Engine.kernels)
          t.Symeq.Report.result.Symeq.Engine.proved
  end

let test_unknown_flag () =
  (* argument-parsing errors are malformed input: usage on stderr, exit
     2 (not cmdliner's default 124) *)
  if available then begin
    let out = Filename.temp_file "openarc_cli" ".out" in
    let err = Filename.temp_file "openarc_cli" ".err" in
    let code =
      Sys.command
        (Fmt.str "%s verify bench:jacobi --no-such-flag > %s 2> %s" exe
           (Filename.quote out) (Filename.quote err))
    in
    let stdout_text = read_file out and stderr_text = read_file err in
    Sys.remove out;
    Sys.remove err;
    Alcotest.(check int) "unknown flag: exit 2" 2 code;
    Alcotest.(check bool) "unknown flag: named on stderr" true
      (contains ~needle:"--no-such-flag" stderr_text);
    Alcotest.(check bool) "unknown flag: usage on stderr" true
      (contains ~needle:"Usage: openarc verify" stderr_text);
    Alcotest.(check string) "unknown flag: stdout silent" "" stdout_text;
    let code =
      Sys.command
        (Fmt.str "%s no-such-command > /dev/null 2> /dev/null" exe)
    in
    Alcotest.(check int) "unknown subcommand: exit 2" 2 code
  end

let test_optimize () =
  check_cmd "optimize" "optimize bench:jacobi --outputs a,b,resid"
    ~expect:[ "converged"; "transfers:" ]

let test_saturate () =
  check_cmd "saturate" "saturate bench:jacobi"
    ~expect:[ "saturate bench:jacobi"; "accepted"; "simulated time" ];
  check_cmd "saturate --json" "saturate bench:jacobi --json --max-steps 2"
    ~expect:
      [ "\"schema\": \"openarc.obs.saturate\""; "\"version\": 1";
        "\"steps\": ["; "\"engine_compile_hits\"" ];
  if available then begin
    (* --apply without --out: the patched source is the stdout payload,
       the report goes to stderr — so stdout | cc-style tools compose *)
    let out = Filename.temp_file "openarc_cli" ".out" in
    let err = Filename.temp_file "openarc_cli" ".err" in
    let code =
      Sys.command
        (Fmt.str "%s saturate bench:jacobi --apply --max-steps 4 > %s 2> %s"
           exe (Filename.quote out) (Filename.quote err))
    in
    let stdout_text = read_file out and stderr_text = read_file err in
    Sys.remove out;
    Sys.remove err;
    Alcotest.(check int) "--apply to stdout: exit 0" 0 code;
    Alcotest.(check bool) "--apply to stdout: patched program" true
      (contains ~needle:"#pragma acc" stdout_text
      && contains ~needle:"int main" stdout_text);
    Alcotest.(check bool) "--apply to stdout: report on stderr" true
      (contains ~needle:"saturate bench:jacobi" stderr_text)
  end

let test_saturate_errors () =
  if available then begin
    (* malformed inputs are usage errors: exit 2, usage on stderr *)
    let code, out = run_cmd "saturate bench:jacobi --devices 0" in
    Alcotest.(check int) "saturate --devices 0: exit 2" 2 code;
    Alcotest.(check bool) "saturate --devices 0: message" true
      (contains ~needle:"invalid --devices" out);
    let code, out = run_cmd "saturate bench:jacobi --max-steps 0" in
    Alcotest.(check int) "saturate --max-steps 0: exit 2" 2 code;
    Alcotest.(check bool) "saturate --max-steps 0: message" true
      (contains ~needle:"invalid --max-steps" out);
    (* --json and --apply both want stdout: refusing beats interleaving *)
    let code, out = run_cmd "saturate bench:jacobi --json --apply" in
    Alcotest.(check int) "saturate --json --apply: exit 2" 2 code;
    Alcotest.(check bool) "saturate --json --apply: names the fix" true
      (contains ~needle:"--out" out);
    (* unknown flags on both optimizer entry points: usage to stderr,
       stdout silent, exit 2.  Neither takes --fault-injection: the search
       runs with automatic recognition on, so it could not search Table
       II's build. *)
    List.iter
      (fun (sub, flag) ->
        let what = Fmt.str "%s %s" sub flag in
        let code, stdout_text, stderr_text =
          run_split (Fmt.str "%s bench:jacobi %s" sub flag)
        in
        Alcotest.(check int) (what ^ ": exit 2") 2 code;
        Alcotest.(check bool) (what ^ ": usage on stderr") true
          (contains ~needle:("Usage: openarc " ^ sub) stderr_text);
        Alcotest.(check string) (what ^ ": stdout silent") "" stdout_text)
      [ ("saturate", "--no-such-flag"); ("optimize", "--no-such-flag");
        ("saturate", "--fault-injection"); ("optimize", "--fault-injection") ]
  end

let test_multi_device () =
  check_cmd "run --devices" "run bench:jacobi --devices 2"
    ~expect:[ "launches"; "Mem Transfer" ];
  check_cmd "run --schedule cyclic" "run bench:jacobi --devices 2 \
                                     --schedule cyclic"
    ~expect:[ "launches" ];
  check_cmd "run failover"
    "run bench:jacobi --devices 2 --device-faults \
     'device-lost:main_kernel0#1' --resilience retry"
    ~expect:[ "failover: 1 device(s) lost" ];
  if available then begin
    (* malformed device counts and out-of-range #DEV selectors are usage
       errors: exit 2, never a crash or a silent single-device run *)
    let code, out = run_cmd "run bench:jacobi --devices 0" in
    Alcotest.(check int) "--devices 0: exit 2" 2 code;
    Alcotest.(check bool) "--devices 0: message" true
      (contains ~needle:"invalid --devices" out);
    let code, out =
      run_cmd
        "run bench:jacobi --devices 2 --device-faults 'device-lost#3'"
    in
    Alcotest.(check int) "out-of-range #DEV: exit 2" 2 code;
    Alcotest.(check bool) "out-of-range #DEV: names the fix" true
      (contains ~needle:"need --devices >= 4" out)
  end

let test_trace () =
  if available then begin
    let tracefile = Filename.temp_file "openarc_trace" ".json" in
    let code, out =
      run_cmd (Fmt.str "run bench:ep --trace %s" (Filename.quote tracefile))
    in
    Alcotest.(check int) "trace: exit" 0 code;
    Alcotest.(check bool) "trace: reported" true
      (contains ~needle:"timeline" out);
    let ic = open_in_bin tracefile in
    let json = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove tracefile;
    Alcotest.(check bool) "trace: chrome json" true
      (contains ~needle:"\"ph\": \"X\"" json)
  end

let test_profile () =
  check_cmd "profile" "profile bench:jacobi"
    ~expect:
      [ "directive"; "TOTAL"; "conservation: exact"; "Mem Transfer" ];
  check_cmd "profile --instrument" "profile bench:jacobi --instrument"
    ~expect:[ "conservation: exact"; "coherence transition(s)";
              "replay consistent" ];
  if available then begin
    (* all four exporters write well-formed artifacts *)
    let tmp suffix = Filename.temp_file "openarc_profile" suffix in
    let json = tmp ".json" and flame = tmp ".folded" in
    let events = tmp ".jsonl" and trace = tmp ".trace.json" in
    let code, _ =
      run_cmd
        (Fmt.str
           "profile bench:jacobi --instrument --json %s --flame %s \
            --events %s --trace %s"
           (Filename.quote json) (Filename.quote flame)
           (Filename.quote events) (Filename.quote trace))
    in
    Alcotest.(check int) "profile exporters: exit 0" 0 code;
    Alcotest.(check bool) "json: schema" true
      (contains ~needle:"\"schema\": \"openarc.obs.profile\""
         (read_file json));
    Alcotest.(check bool) "flame: folded stacks" true
      (contains ~needle:";" (read_file flame));
    let ev = read_file events in
    Alcotest.(check bool) "events: span lines" true
      (contains ~needle:"\"type\": \"span_begin\"" ev);
    Alcotest.(check bool) "events: audit lines" true
      (contains ~needle:"\"type\": \"audit\"" ev);
    Alcotest.(check bool) "trace: chrome json" true
      (contains ~needle:"\"ph\": \"X\"" (read_file trace));
    List.iter Sys.remove [ json; flame; events; trace ];
    (* determinism: same seed, byte-identical profile JSON *)
    let j1 = tmp ".json" and j2 = tmp ".json" in
    let _ =
      run_cmd (Fmt.str "profile bench:ep --json %s" (Filename.quote j1))
    in
    let _ =
      run_cmd (Fmt.str "profile bench:ep --json %s" (Filename.quote j2))
    in
    Alcotest.(check string) "profile json reproducible" (read_file j1)
      (read_file j2);
    List.iter Sys.remove [ j1; j2 ];
    (* profiling a faulty resilient run still conserves *)
    let code, out =
      run_cmd
        "profile bench:jacobi --device-faults xfer-fail --resilience retry"
    in
    Alcotest.(check int) "faulty profile: exit 0" 0 code;
    Alcotest.(check bool) "faulty profile conserves" true
      (contains ~needle:"conservation: exact" out)
  end

let test_verify_trace () =
  if available then begin
    let trace = Filename.temp_file "openarc_verify" ".json" in
    let events = Filename.temp_file "openarc_verify" ".jsonl" in
    let code, _ =
      run_cmd
        (Fmt.str "verify bench:jacobi --trace %s --events %s"
           (Filename.quote trace) (Filename.quote events))
    in
    Alcotest.(check int) "verify --trace: exit 0" 0 code;
    Alcotest.(check bool) "verify trace: chrome json" true
      (contains ~needle:"\"ph\": \"X\"" (read_file trace));
    Alcotest.(check bool) "verify events: phase span" true
      (contains ~needle:"\"type\": \"span_begin\"" (read_file events));
    List.iter Sys.remove [ trace; events ]
  end

let test_fault_matrix_trace () =
  if available then begin
    let trace = Filename.temp_file "openarc_matrix" ".json" in
    let code, _ =
      run_cmd
        (Fmt.str
           "fault-matrix --benches jacobi --kinds xfer-fail --trace %s"
           (Filename.quote trace))
    in
    Alcotest.(check int) "fault-matrix --trace: exit 0" 0 code;
    let j = read_file trace in
    Sys.remove trace;
    Alcotest.(check bool) "per-cell process names" true
      (contains ~needle:"process_name" j);
    Alcotest.(check bool) "cell label" true
      (contains ~needle:"JACOBI/xfer-fail/" j)
  end

let test_lint () =
  check_cmd "lint clean optimized" "lint bench:jacobi:opt --deny-warnings"
    ~expect:[ "0 error(s)" ];
  if available then begin
    (* the unoptimized variant carries redundant-transfer warnings: exit 0
       normally, exit 1 under --deny-warnings *)
    let code, out = run_cmd "lint bench:jacobi" in
    Alcotest.(check int) "lint warnings: exit 0" 0 code;
    Alcotest.(check bool) "lint warnings: ACC-XFER-004 reported" true
      (contains ~needle:"ACC-XFER-004" out);
    let code, _ = run_cmd "lint bench:jacobi --deny-warnings" in
    Alcotest.(check int) "lint --deny-warnings: exit 1" 1 code;
    (* injected faults are errors: exit 1, with fix-its *)
    let code, out = run_cmd "lint bench:ep --fault-injection" in
    Alcotest.(check int) "lint faults: exit 1" 1 code;
    Alcotest.(check bool) "lint faults: RACE-001" true
      (contains ~needle:"ACC-RACE-001" out);
    Alcotest.(check bool) "lint faults: RACE-002" true
      (contains ~needle:"ACC-RACE-002" out);
    Alcotest.(check bool) "lint faults: fix-it shown" true
      (contains ~needle:"fix:" out);
    (* JSON rendering *)
    let code, out = run_cmd "lint bench:ep --fault-injection --json" in
    Alcotest.(check int) "lint --json: exit 1" 1 code;
    Alcotest.(check bool) "lint --json: code field" true
      (contains ~needle:"\"code\": \"ACC-RACE-002\"" out)
  end

let test_version () =
  if available then begin
    let code, out = run_cmd "--version" in
    Alcotest.(check int) "--version: exit 0" 0 code;
    Alcotest.(check bool) "--version: prints a version" true
      (contains ~needle:"1.0.0" out)
  end

let test_error_handling () =
  if available then begin
    let code, _ = run_cmd "run bench:nosuchbenchmark" in
    Alcotest.(check bool) "unknown benchmark fails" true (code <> 0);
    let code, _ = run_cmd "verify /nonexistent/file.mc" in
    Alcotest.(check bool) "missing file fails" true (code <> 0);
    (* malformed input exits 2, runtime trouble exits 1 *)
    let bad = Filename.temp_file "openarc_cli" ".c" in
    let oc = open_out bad in
    output_string oc "int main() { return 0 }\n";
    close_out oc;
    let code, _ = run_cmd (Fmt.str "compile %s" (Filename.quote bad)) in
    Sys.remove bad;
    Alcotest.(check int) "syntax error: exit 2" 2 code;
    let invalid = Filename.temp_file "openarc_cli" ".c" in
    let oc = open_out invalid in
    output_string oc
      "int main() { float a[4];\n#pragma acc data copyin(a) copyout(a)\n{ \
       }\nreturn 0; }\n";
    close_out oc;
    let code, _ = run_cmd (Fmt.str "compile %s" (Filename.quote invalid)) in
    Sys.remove invalid;
    Alcotest.(check int) "validation error: exit 2" 2 code
  end

let test_device_faults () =
  if available then begin
    (* recovered faulty run: exit 0 with the fault/recovery report *)
    let code, out =
      run_cmd "run bench:jacobi --device-faults xfer-fail --resilience retry"
    in
    Alcotest.(check int) "recovered run: exit 0" 0 code;
    Alcotest.(check bool) "report printed" true
      (contains ~needle:"fault/recovery report" out);
    Alcotest.(check bool) "retry logged" true
      (contains ~needle:"-> retry (ok)" out);
    (* no policy: the raw typed fault escapes with its diagnostic code *)
    let code, out = run_cmd "run bench:jacobi --device-faults xfer-fail" in
    Alcotest.(check int) "raw fault: exit 1" 1 code;
    Alcotest.(check bool) "raw fault: ACC-FAULT-002" true
      (contains ~needle:"ACC-FAULT-002" out);
    (* a fault the policy cannot mask: the other diagnostic code *)
    let code, out =
      run_cmd
        "run bench:jacobi --device-faults device-lost --resilience retry"
    in
    Alcotest.(check int) "unrecovered: exit 1" 1 code;
    Alcotest.(check bool) "unrecovered: ACC-FAULT-001" true
      (contains ~needle:"ACC-FAULT-001" out);
    (* malformed spec / policy: exit 2 like any malformed input *)
    let code, _ = run_cmd "run bench:jacobi --device-faults frobnicate" in
    Alcotest.(check int) "malformed spec: exit 2" 2 code;
    let code, _ = run_cmd "run bench:jacobi --resilience bogus" in
    Alcotest.(check int) "malformed policy: exit 2" 2 code;
    (* device loss under [full]: completes in host mode, JSON report *)
    let json = Filename.temp_file "openarc_faults" ".json" in
    let code, out =
      run_cmd
        (Fmt.str
           "run bench:jacobi --device-faults device-lost --resilience full \
            --faults-json %s"
           (Filename.quote json))
    in
    Alcotest.(check int) "host mode: exit 0" 0 code;
    Alcotest.(check bool) "host mode noted" true
      (contains ~needle:"host mode" out);
    let ic = open_in_bin json in
    let j = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove json;
    Alcotest.(check bool) "json: device_lost" true
      (contains ~needle:"\"device_lost\": true" j);
    Alcotest.(check bool) "json: seed" true (contains ~needle:"\"seed\": 42" j)
  end

let test_diff_profile () =
  if available then begin
    let tmp () = Filename.temp_file "openarc_diff" ".json" in
    let p1 = tmp () and p2 = tmp () and popt = tmp () in
    let gen variant path =
      let code, _ =
        run_cmd
          (Fmt.str "profile %s --json %s" variant (Filename.quote path))
      in
      Alcotest.(check int) (variant ^ ": profile exit 0") 0 code
    in
    gen "bench:jacobi" p1;
    gen "bench:jacobi" p2;
    gen "bench:jacobi:opt" popt;
    (* two same-seed runs of the same program: all-zero delta, exit 0 *)
    let code, out =
      run_cmd
        (Fmt.str "diff-profile %s %s" (Filename.quote p1)
           (Filename.quote p2))
    in
    Alcotest.(check int) "identical pair: exit 0" 0 code;
    Alcotest.(check bool) "identical pair: all-zero" true
      (contains ~needle:"all-zero delta: the profiles are identical" out);
    (* naive vs optimized: the win is attributed to transfers *)
    let code, out =
      run_cmd
        (Fmt.str "diff-profile %s %s" (Filename.quote p1)
           (Filename.quote popt))
    in
    Alcotest.(check int) "naive-vs-opt: exit 0" 0 code;
    List.iter
      (fun needle ->
        Alcotest.(check bool)
          (Fmt.str "naive-vs-opt mentions %S" needle)
          true (contains ~needle out))
      [ "Mem Transfer"; "vanished"; "appeared"; "counters:" ];
    (* --json emits the canonical diff document *)
    let dj = tmp () in
    let code, _ =
      run_cmd
        (Fmt.str "diff-profile %s %s --json %s" (Filename.quote p1)
           (Filename.quote popt) (Filename.quote dj))
    in
    Alcotest.(check int) "diff --json: exit 0" 0 code;
    Alcotest.(check bool) "diff json schema" true
      (contains ~needle:"\"schema\": \"openarc.obs.profile-diff\""
         (read_file dj));
    (* malformed input: exit 2 *)
    let bad = tmp () in
    let oc = open_out bad in
    output_string oc "{ not a profile\n";
    close_out oc;
    let code, _ =
      run_cmd
        (Fmt.str "diff-profile %s %s" (Filename.quote bad)
           (Filename.quote p1))
    in
    Alcotest.(check int) "malformed profile: exit 2" 2 code;
    let code, _ =
      run_cmd (Fmt.str "diff-profile %s /nonexistent.json" (Filename.quote p1))
    in
    Alcotest.(check int) "missing file: exit 2" 2 code;
    List.iter Sys.remove [ p1; p2; popt; dj; bad ]
  end

let test_session () =
  check_cmd "session" "session bench:jacobi --outputs a,b,resid"
    ~expect:[ "iteration 1"; "converged" ];
  check_cmd "session --report" "session bench:jacobi --outputs a,b,resid \
                                --report"
    ~expect:
      [ "interactive session report"; "profile delta"; "Mem Transfer";
        "transfers:" ];
  if available then begin
    let json = Filename.temp_file "openarc_session" ".json" in
    let code, _ =
      run_cmd
        (Fmt.str "session bench:jacobi --outputs a,b,resid --json %s"
           (Filename.quote json))
    in
    Alcotest.(check int) "session --json: exit 0" 0 code;
    let doc = read_file json in
    Sys.remove json;
    let v = Obs.Pjson.parse doc in
    Alcotest.(check (option string)) "session schema"
      (Some "openarc.obs.session")
      (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
    let records =
      Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "records" v))
    in
    Alcotest.(check bool) "session records present" true (records <> []);
    (* byte-reproducible across processes: two invocations, same bytes *)
    let json2 = Filename.temp_file "openarc_session" ".json" in
    let _ =
      run_cmd
        (Fmt.str "session bench:jacobi --outputs a,b,resid --json %s"
           (Filename.quote json2))
    in
    Alcotest.(check string) "session json byte-reproducible" doc
      (read_file json2);
    Sys.remove json2
  end

(* An output the program never binds is malformed input; a session that
   never converges reports the transfers of a program whose outputs
   matched (here the input's: 3 -> 3), not of its last, broken edit. *)
let test_session_outputs () =
  if available then begin
    List.iter
      (fun cmd ->
        let code, out = run_cmd (cmd ^ " bench:jacobi --outputs a,nosuch") in
        Alcotest.(check int) (cmd ^ " unknown output: exit 2") 2 code;
        Alcotest.(check bool) (cmd ^ " unknown output: named") true
          (contains ~needle:"output 'nosuch'" out))
      [ "session"; "optimize" ];
    with_source Test_session.device_written_input (fun path ->
        let code, out = run_cmd (Fmt.str "optimize %s --outputs s,b" path) in
        Alcotest.(check int) "unconverged optimize: exit 0" 0 code;
        Alcotest.(check bool) "unconverged optimize: not converged" true
          (contains ~needle:"converged: false" out);
        Alcotest.(check bool) "unconverged optimize: input's transfers" true
          (contains ~needle:"transfers: 3 (192 bytes) -> 3 (192 bytes)" out))
  end

(* Arrays a loop header reads are kernel inputs ([Test_kernel_exec]'s
   header-read programs): runs and verification succeed at every device
   count, and a session's first profiled run matches the reference; an
   input the device lacks names the kernel and exits 1. *)
let test_kernel_inputs () =
  if available then begin
    List.iter
      (fun (what, src, outputs) ->
        with_source src (fun path ->
            List.iter
              (fun devices ->
                let code, _ =
                  run_cmd (Fmt.str "run %s --devices %d" path devices)
                in
                Alcotest.(check int)
                  (Fmt.str "%s: run --devices %d exits 0" what devices)
                  0 code;
                let code, out =
                  run_cmd
                    (Fmt.str "session %s --outputs %s --devices %d" path
                       (String.concat "," outputs) devices)
                in
                Alcotest.(check int)
                  (Fmt.str "%s: session --devices %d exits 0" what devices)
                  0 code;
                Alcotest.(check bool)
                  (Fmt.str "%s: session --devices %d iteration 1 ok" what
                     devices)
                  true
                  (contains ~needle:"iteration 1: outputs ok" out))
              [ 1; 2; 4 ];
            let code, out = run_cmd (Fmt.str "verify %s" path) in
            Alcotest.(check int) (what ^ ": verify exits 0") 0 code;
            Alcotest.(check bool) (what ^ ": verify clean") true
              (contains ~needle:"0 kernel(s) with detected errors" out)))
      Test_kernel_exec.header_read_programs;
    with_source
      "int main() { float a[4];\n#pragma acc data present(a)\n{\n#pragma acc \
       kernels loop\nfor (int i = 0; i < 4; i++) { a[i] = 1.0; }\n}\nreturn \
       0; }"
      (fun path ->
        let code, out = run_cmd (Fmt.str "run %s" path) in
        Alcotest.(check int) "absent input: exit 1" 1 code;
        Alcotest.(check string) "absent input: readable message"
          "openarc: device error: kernel main_kernel0 at <input>:5:1: device \
           buffer 'a' is not allocated\n"
          out)
  end

(* A data region a session inserts is numbered above the program's
   largest sid: BACKPROP's report names it data100 whatever the device
   count. *)
let test_session_labels () =
  if available then begin
    let labels devices =
      let code, out =
        run_cmd
          (Fmt.str
             "session bench:backprop --outputs checksum,err --report \
              --devices %d"
             devices)
      in
      Alcotest.(check int) (Fmt.str "--devices %d: exit 0" devices) 0 code;
      let re = Str.regexp "\\(data\\|declare\\)[0-9]+" in
      let rec go pos acc =
        match Str.search_forward re out pos with
        | i -> go (i + 1) (Str.matched_string out :: acc)
        | exception Not_found -> List.sort_uniq compare acc
      in
      go 0 []
    in
    List.iter
      (fun d ->
        Alcotest.(check (list string))
          (Fmt.str "--devices %d: the inserted region's label" d)
          [ "data100" ] (labels d))
      [ 1; 2; 4 ]
  end

let test_analyze () =
  check_cmd "analyze" "analyze bench:bfs --devices 4"
    ~expect:
      [ "shard imbalance analysis (4 device(s), schedule block)";
        "main_kernel0"; "switch"; "cyclic"; "program predicted:" ];
  if available then begin
    (* --json emits the canonical document, byte-reproducible *)
    let code, out = run_cmd "analyze bench:bfs --devices 4 --json" in
    Alcotest.(check int) "analyze --json: exit 0" 0 code;
    let v = Obs.Pjson.parse out in
    Alcotest.(check (option string)) "json schema"
      (Some "openarc.obs.imbalance")
      (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
    Alcotest.(check (option string)) "BFS recommended cyclic"
      (Some "cyclic")
      (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "recommended" v));
    Alcotest.(check bool) "per-kernel verdicts present" true
      (Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "kernels" v))
      <> []);
    let _, out2 = run_cmd "analyze bench:bfs --devices 4 --json" in
    Alcotest.(check string) "analyze json byte-reproducible" out out2;
    (* --out writes the same document next to the text report *)
    let f = Filename.temp_file "openarc_analyze" ".json" in
    let code, _ =
      run_cmd
        (Fmt.str "analyze bench:bfs --devices 4 --out %s"
           (Filename.quote f))
    in
    Alcotest.(check int) "analyze --out: exit 0" 0 code;
    Alcotest.(check string) "--out matches --json" out (read_file f);
    Sys.remove f;
    (* a single device is malformed input for the analyzer *)
    let code, out = run_cmd "analyze bench:bfs --devices 1" in
    Alcotest.(check int) "--devices 1: exit 2" 2 code;
    Alcotest.(check bool) "--devices 1: names the fix" true
      (contains ~needle:"--devices >= 2" out);
    (* a uniform benchmark run under cyclic is told to keep it *)
    let code, out =
      run_cmd "analyze bench:jacobi --devices 4 --schedule cyclic"
    in
    Alcotest.(check int) "cyclic analyze: exit 0" 0 code;
    Alcotest.(check bool) "uniform kernel keeps its schedule" true
      (contains ~needle:"keep" out)
  end

(* The compiled engine is the default: each command that takes --engine
   prints byte-identical output under --engine tree, and an unknown
   engine is still cmdliner's usage error. *)
let test_engine_default () =
  if available then begin
    let _, help = run_cmd "run --help=plain" in
    Alcotest.(check bool) "--engine defaults to compiled" true
      (contains ~needle:"--engine=ENGINE (absent=compiled)" help);
    List.iter
      (fun b ->
        List.iter
          (fun args ->
            let code, default = run_cmd args in
            let code', tree = run_cmd (args ^ " --engine tree") in
            Alcotest.(check int) (args ^ ": exit 0") 0 code;
            Alcotest.(check int) (args ^ " --engine tree: exit 0") 0 code';
            Alcotest.(check string)
              (args ^ ": output identical under --engine tree")
              tree default)
          [ Fmt.str "run bench:%s --instrument" b;
            Fmt.str "analyze bench:%s --devices 4" b;
            Fmt.str "memtrace bench:%s" b ])
      [ "jacobi"; "backprop"; "bfs" ];
    let code, _ = run_cmd "run bench:jacobi --engine frobnicate" in
    Alcotest.(check int) "--engine frobnicate: exit 124" 124 code
  end

let test_fault_matrix () =
  check_cmd "fault-matrix"
    "fault-matrix --benches jacobi --kinds xfer-fail,bitflip"
    ~expect:[ "[OK]"; "4/4 cell(s) recovered verified-correct" ];
  if available then begin
    let code, _ = run_cmd "fault-matrix --benches nosuchbenchmark" in
    Alcotest.(check int) "unknown bench: exit 2" 2 code;
    let code, _ = run_cmd "fault-matrix --benches jacobi --kinds frobnicate" in
    Alcotest.(check int) "unknown kind: exit 2" 2 code
  end

(* One expected outcome per malformed input, from every command that
   takes a program: exit 2 with one located line on stderr, never 125.
   A subarray whose constant bounds run past a constant extent is a
   validation error; one whose length is only known at run time fails
   the run (exit 1) with a message naming the site. *)
let test_exit_code_table () =
  if available then begin
    let with_data clause update =
      Fmt.str
        "int main() { int n = 100; float a[4];\n\
         for (int i = 0; i < 4; i++) { a[i] = 0.0; }\n\
         #pragma acc data %s\n\
         {\n\
         #pragma acc kernels loop\n\
         for (int i = 0; i < 4; i++) { a[i] = 1.0; }\n\
         %s}\n\
         return 0; }\n"
        clause update
    in
    let files = ref [] in
    let source text =
      let path = Filename.temp_file "openarc_cli" ".c" in
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      files := path :: !files;
      path
    in
    let run_lines args =
      let code, _, err = run_split args in
      (code, List.filter (( <> ) "") (String.split_on_char '\n' err))
    in
    let commands =
      [ "compile"; "run"; "profile"; "analyze --devices 2"; "memtrace";
        "verify"; "saturate"; "optimize --outputs a"; "session --outputs a";
        "lint" ]
    in
    (* row, FILE argument (None: bench:nope), what stderr must say *)
    let malformed =
      [ ("zero-length subarray", Some (with_data "copy(a[0:0])" ""),
         "length must be positive");
        ("copy past the end", Some (with_data "copy(a[0:100])" ""),
         "'a[0:100]' runs past the end of 'a' (4 element(s))");
        ("copyin past the end", Some (with_data "copyin(a[0:100])" ""),
         "'a[0:100]' runs past the end of 'a' (4 element(s))");
        ("update past the end",
         Some (with_data "copyin(a)" "#pragma acc update host(a[1:9])\n"),
         "'a[1:9]' runs past the end of 'a' (4 element(s))");
        ("syntax error", Some "int main() { float a[4]; return 0 }\n",
         "expected ';'");
        ("type error", Some "int main() { float a[4]; a[0] = b; return 0; }\n",
         "undeclared variable 'b'");
        ("recursive inlining",
         Some
           "void f(float a[4], int d) {\n\
            #pragma acc kernels loop\n\
            for (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }\n\
            if (d > 0) { f(a, d - 1); }\n\
            }\n\
            int main() { float a[4]; f(a, 2); return 0; }\n",
         "directive-containing function 'f' calls itself");
        ("inlinable call in a declaration",
         Some
           "float f(float a[4]) {\n\
            #pragma acc kernels loop\n\
            for (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }\n\
            return a[0];\n\
            }\n\
            int main() { float a[4]; float x = f(a); return 0; }\n",
         "call to directive-containing function 'f' must be a statement");
        ("no main", Some "int g() { return 0; }\n",
         "program has no 'main' function");
        ("empty file", Some "", "program has no 'main' function");
        ("globals only", Some "float g0 = 1.0;\n",
         "program has no 'main' function");
        ("parallel loop without a condition",
         Some
           "int main() { float a[4];\n\
            #pragma acc kernels loop\n\
            for (int i = 0; ; i++) { a[i] = 1.0; }\n\
            return 0; }\n",
         "parallel loop requires a condition");
        ("bench:nope", None, "unknown benchmark 'nope'") ]
    in
    List.iter
      (fun (row, text, needle) ->
        let path = Option.map source text in
        List.iter
          (fun cmd ->
            let what = Fmt.str "%s / %s" row cmd in
            let code, err =
              run_lines
                (Fmt.str "%s %s" cmd
                   (Option.fold ~none:"bench:nope" ~some:Filename.quote path))
            in
            Alcotest.(check int) (what ^ ": exit 2") 2 code;
            Alcotest.(check int) (what ^ ": one stderr line") 1
              (List.length err);
            let line = String.concat "" err in
            Alcotest.(check bool) (what ^ ": says " ^ needle) true
              (contains ~needle line);
            match path with
            | Some p ->
                (* lint names FILE, the other commands <input> *)
                let at = if cmd = "lint" then p else "<input>" in
                Alcotest.(check bool) (what ^ ": located at " ^ at) true
                  (contains ~needle:(" at " ^ at ^ ":") line)
            | None -> ())
          commands)
      malformed;
    (* the commands that run the program fail the run *)
    let running =
      [ "run"; "profile"; "analyze --devices 2"; "memtrace"; "saturate";
        "optimize --outputs a" ]
    in
    let runtime = source (with_data "copy(a[0:n])" "") in
    List.iter
      (fun cmd ->
        let code, err = run_lines (cmd ^ " " ^ Filename.quote runtime) in
        let line = String.concat "" err in
        Alcotest.(check bool) (cmd ^ ": run-time overrun is no crash") true
          (code <> 125);
        if List.mem cmd running then begin
          Alcotest.(check int) (cmd ^ ": run-time overrun exits 1") 1 code;
          Alcotest.(check bool) (cmd ^ ": names the site") true
            (contains ~needle:"subarray a[0:100] at data" line
            && contains ~needle:"outside the 4 element(s) of 'a'" line)
        end)
      commands;
    (* an update of data no region allocated fails the run at its site *)
    let absent =
      source
        "int main() { int n = 8; float a[n];\n\
         for (int i = 0; i < n; i++) { a[i] = 1.0; }\n\
         #pragma acc update device(a)\n\
         #pragma acc kernels loop\n\
         for (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }\n\
         return 0; }\n"
    in
    List.iter
      (fun (cmd, at) ->
        let code, err = run_lines (cmd ^ " " ^ Filename.quote absent) in
        Alcotest.(check int) (cmd ^ ": absent update exits 1") 1 code;
        Alcotest.(check (list string))
          (cmd ^ ": names the site, its location and the array")
          [ Fmt.str
              "Mini-C runtime error: update0.device(a) (%s) transfers 'a', \
               which is not present on device 0"
              at ]
          err)
      [ ("run", "<input>:3:1"); ("run --instrument", "<input>:3:1");
        ("saturate", "<saturate>:7:3") ];
    (* session reports the failed iteration and carries on to its summary *)
    let code, out =
      run_cmd (Fmt.str "session %s --outputs a" (Filename.quote runtime))
    in
    Alcotest.(check int) "session: run-time overrun exits 0" 0 code;
    Alcotest.(check bool) "session: failed iteration names the overrun" true
      (contains ~needle:"failed: Mini-C runtime error: subarray a[0:100]" out);
    List.iter Sys.remove !files
  end

(* Malformed option values and documents: each exits 2 with one stderr
   line naming the offending part — a profile number diff-profile cannot
   represent (or one outside JSON's grammar), a verification spec with an
   unknown key, a stray word or a non-finite or negative number (from
   --options or OPENARC_VERIFICATION), and an iteration cap below 1. *)
let test_malformed_options_table () =
  if available then begin
    let files = ref [] in
    let temp () =
      let path = Filename.temp_file "openarc_cli" ".json" in
      files := path :: !files;
      path
    in
    let base = temp () in
    let code, _ =
      run_cmd (Fmt.str "profile bench:jacobi --json %s" (Filename.quote base))
    in
    Alcotest.(check int) "base profile: exit 0" 0 code;
    let doc = read_file base in
    (* the base profile with its first [sub] replaced by [by] *)
    let edited sub by =
      let n = String.length sub in
      let rec find i = if String.sub doc i n = sub then i else find (i + 1) in
      let i = find 0 in
      let path = temp () in
      Out_channel.with_open_bin path (fun oc ->
          output_string oc
            (String.sub doc 0 i ^ by
            ^ String.sub doc (i + n) (String.length doc - i - n)));
      Fmt.str "diff-profile %s %s" (Filename.quote base) (Filename.quote path)
    in
    let seed v = edited "\"seed\": 42" ("\"seed\": " ^ v) in
    (* row, OPENARC_VERIFICATION-style spec or command line, stderr *)
    let rows =
      [ ("seed 1.5", `Cmd (seed "1.5"), "seed: expected an integer, got 1.5");
        ("seed 1e400", `Cmd (seed "1e400"),
         "seed: expected an integer, got 1e400");
        ("counter 2.5",
         `Cmd
           (edited "\"counters\": {\"kernels\": "
              "\"counters\": {\"kernels\": 2.5, \"was\": "),
         "counters: kernels: expected an integer, got 2.5");
        ("version 7", `Cmd (edited "\"version\": 1" "\"version\": 7"),
         "unsupported version 7");
        ("total 1e400",
         `Cmd (edited "\"total\": " "\"total\": 1e400, \"was\": "),
         "total: number 1e400 is out of range");
        ("number +42", `Cmd (seed "+42"), "expected a value");
        ("number 042", `Cmd (seed "042"), "expected ',' or '}'");
        ("number 42.", `Cmd (seed "42."), "malformed number");
        ("number .5", `Cmd (seed ".5"), "expected a value");
        ("unknown key", `Spec "errorMarg=0.5",
         "unknown option 'errorMarg' in 'errorMarg=0.5'");
        ("stray word", `Spec "garbage", "'garbage' is not a key=value option");
        ("word before kernels=", `Spec "main_kernel1,kernels=main_kernel0",
         "'main_kernel1' is not a key=value option");
        ("errorMargin=abc", `Spec "errorMargin=abc",
         "errorMargin=abc is not a finite number");
        ("errorMargin=nan", `Spec "errorMargin=nan",
         "errorMargin=nan is not a finite number");
        ("errorMargin=inf", `Spec "errorMargin=inf",
         "errorMargin=inf is not a finite number");
        ("minValueToCheck=inf", `Spec "minValueToCheck=inf",
         "minValueToCheck=inf is not a finite number");
        ("negative errorMargin", `Spec "errorMargin=-0.5",
         "errorMargin=-0.5 is negative");
        ("optimize --max-iterations 0",
         `Cmd "optimize bench:jacobi --outputs a --max-iterations 0",
         "invalid --max-iterations: 0");
        ("session --max-iterations 0",
         `Cmd "session bench:jacobi --outputs a --max-iterations 0",
         "invalid --max-iterations: 0") ]
    in
    let check what args needle =
      let code, _, err = run_split args in
      let err = List.filter (( <> ) "") (String.split_on_char '\n' err) in
      Alcotest.(check int) (what ^ ": exit 2") 2 code;
      Alcotest.(check int) (what ^ ": one stderr line") 1 (List.length err);
      Alcotest.(check bool) (what ^ ": says " ^ needle) true
        (contains ~needle (String.concat "" err))
    in
    List.iter
      (fun (row, input, needle) ->
        match input with
        | `Cmd args -> check row args needle
        | `Spec spec ->
            check (row ^ " / --options")
              (Fmt.str "verify bench:ep --fault-injection --options %s"
                 (Filename.quote spec))
              needle;
            Unix.putenv "OPENARC_VERIFICATION" spec;
            Fun.protect
              ~finally:(fun () -> Unix.putenv "OPENARC_VERIFICATION" "")
              (fun () ->
                check
                  (row ^ " / OPENARC_VERIFICATION")
                  "verify bench:ep --fault-injection"
                  ("OPENARC_VERIFICATION: invalid verification options: "
                  ^ needle)))
      rows;
    (* a \u escape in a profile name decodes to its byte *)
    let code, out =
      run_cmd
        (edited "\"name\": \"bench:jacobi\"" "\"name\": \"x\\u0001y\"")
    in
    Alcotest.(check int) "escaped name: exit 0" 0 code;
    Alcotest.(check bool) "escaped name: decoded" true
      (contains ~needle:"-> x\001y" out);
    List.iter Sys.remove !files
  end

let tests =
  [ Alcotest.test_case "benchmarks" `Quick test_benchmarks;
    Alcotest.test_case "compile" `Quick test_compile;
    Alcotest.test_case "run" `Quick test_run;
    Alcotest.test_case "verify" `Quick test_verify;
    Alcotest.test_case "verify symbolic" `Quick test_verify_symbolic;
    Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
    Alcotest.test_case "optimize" `Slow test_optimize;
    Alcotest.test_case "saturate" `Slow test_saturate;
    Alcotest.test_case "saturate errors" `Quick test_saturate_errors;
    Alcotest.test_case "multi-device" `Quick test_multi_device;
    Alcotest.test_case "trace" `Quick test_trace;
    Alcotest.test_case "profile" `Quick test_profile;
    Alcotest.test_case "verify trace" `Quick test_verify_trace;
    Alcotest.test_case "fault matrix trace" `Quick test_fault_matrix_trace;
    Alcotest.test_case "lint" `Quick test_lint;
    Alcotest.test_case "device faults" `Quick test_device_faults;
    Alcotest.test_case "diff profile" `Quick test_diff_profile;
    Alcotest.test_case "analyze" `Quick test_analyze;
    Alcotest.test_case "session" `Slow test_session;
    Alcotest.test_case "session labels across device counts" `Slow
      test_session_labels;
    Alcotest.test_case "fault matrix" `Quick test_fault_matrix;
    Alcotest.test_case "engine default" `Quick test_engine_default;
    Alcotest.test_case "version" `Quick test_version;
    Alcotest.test_case "error handling" `Quick test_error_handling;
    Alcotest.test_case "session outputs" `Quick test_session_outputs;
    Alcotest.test_case "kernel inputs" `Quick test_kernel_inputs;
    Alcotest.test_case "exit code table" `Quick test_exit_code_table;
    Alcotest.test_case "malformed options table" `Quick
      test_malformed_options_table ]
