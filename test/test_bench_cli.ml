(* Integration tests of the bench driver: the golden byte gate
   ([check]) on a temp copy of the committed BENCH_profile.json — clean,
   with one digit of a directive row moved, and with a golden missing —
   and the exit-2 usage convention. *)

let exe = Filename.concat (Sys.getcwd ()) "../bench/main.exe"

let baseline = "../BENCH_profile.json"

let available = Sys.file_exists exe && Sys.file_exists baseline

(* Separate stdout/stderr capture, running in [cwd]: the goldens are read
   relative to the working directory. *)
let run_cmd ?(cwd = ".") args =
  let out = Filename.temp_file "bench_cli" ".out" in
  let err = Filename.temp_file "bench_cli" ".err" in
  let cmd =
    Fmt.str "cd %s && %s %s > %s 2> %s" (Filename.quote cwd) exe args
      (Filename.quote out) (Filename.quote err)
  in
  let code = Sys.command cmd in
  let read p =
    let s = In_channel.with_open_bin p In_channel.input_all in
    Sys.remove p;
    s
  in
  let o = read out and e = read err in
  (code, o, e)

let index_of ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i =
    if i + n > m then None
    else if String.sub s i n = needle then Some i
    else go (i + 1)
  in
  go 0

let contains ~needle s = index_of ~needle s <> None

let test_unknown_subcommand () =
  if available then begin
    let code, out, err = run_cmd "frobnicate" in
    Alcotest.(check int) "unknown subcommand: exit 2" 2 code;
    Alcotest.(check string) "nothing on stdout" "" out;
    Alcotest.(check bool) "names the offender on stderr" true
      (contains ~needle:"unknown experiment 'frobnicate'" err);
    Alcotest.(check bool) "usage on stderr" true
      (contains ~needle:"usage: main.exe" err);
    Alcotest.(check bool) "usage lists the byte gate" true
      (contains ~needle:"check [TIER ...]" err)
  end

let test_unknown_flag () =
  if available then begin
    let code, _, err = run_cmd "wall --frobnicate yes" in
    Alcotest.(check int) "unknown flag: exit 2" 2 code;
    Alcotest.(check bool) "flag named on stderr" true
      (contains ~needle:"unknown option '--frobnicate'" err);
    let code, _, err = run_cmd "wall --json" in
    Alcotest.(check int) "missing value: exit 2" 2 code;
    Alcotest.(check bool) "missing value named" true
      (contains ~needle:"requires a value" err);
    let code, _, err = run_cmd "wall --benches nosuchbenchmark" in
    Alcotest.(check int) "unknown benchmark: exit 2" 2 code;
    Alcotest.(check bool) "benchmark named" true
      (contains ~needle:"unknown benchmark" err);
    let code, _, err = run_cmd "check nosuchtier" in
    Alcotest.(check int) "unknown tier: exit 2" 2 code;
    Alcotest.(check bool) "tier named" true
      (contains ~needle:"unknown tier 'nosuchtier'" err)
  end

(* A temp directory holding a copy of the committed profile golden. *)
let with_profile_copy f =
  let dir = Filename.temp_dir "bench_check" "" in
  let golden = Filename.concat dir "BENCH_profile.json" in
  let doc = In_channel.with_open_bin baseline In_channel.input_all in
  Out_channel.with_open_bin golden (fun oc -> output_string oc doc);
  Fun.protect
    ~finally:(fun () ->
      Sys.remove golden;
      Sys.rmdir dir)
    (fun () -> f ~dir ~golden doc)

let test_check_clean () =
  if available then
    with_profile_copy (fun ~dir ~golden doc ->
        let code, out, err = run_cmd ~cwd:dir "check profile" in
        Alcotest.(check int) "unmodified golden: exit 0" 0 code;
        Alcotest.(check string) "quiet stderr" "" err;
        Alcotest.(check bool) "reported byte-identical" true
          (contains ~needle:"BENCH_profile.json: byte-identical" out);
        Alcotest.(check string) "golden left untouched" doc
          (In_channel.with_open_bin golden In_channel.input_all))

let test_check_names_moved_row () =
  if available then
    with_profile_copy (fun ~dir ~golden doc ->
        (* Move the last digit of the total of JACOBI's first directive
           row by one unit. *)
        let lines = String.split_on_char '\n' doc in
        let row =
          List.find
            (fun l ->
              contains ~needle:"{\"directive\": " l
              && contains ~needle:"\"loc\": \"JACOBI:" l)
            lines
        in
        let digit = Option.get (index_of ~needle:", \"categories\"" row) - 1 in
        let moved =
          String.mapi
            (fun i c ->
              if i <> digit then c
              else if c = '9' then '8'
              else Char.chr (Char.code c + 1))
            row
        in
        let directive =
          let start = Option.get (index_of ~needle:"\"directive\": " row) in
          let stop = Option.get (index_of ~needle:", \"kind\"" row) in
          String.sub row start (stop - start)
        in
        Out_channel.with_open_bin golden (fun oc ->
            output_string oc
              (String.concat "\n"
                 (List.map (fun l -> if l == row then moved else l) lines)));
        let code, _, err = run_cmd ~cwd:dir "check profile" in
        Alcotest.(check int) "moved digit: exit 1" 1 code;
        Alcotest.(check bool) "line number reported" true
          (contains ~needle:"BENCH_profile.json: line " err);
        Alcotest.(check bool) ("names " ^ directive) true
          (contains ~needle:directive err);
        Alcotest.(check bool) "both versions shown" true
          (contains ~needle:"committed:" err
          && contains ~needle:"regenerated:" err))

let test_check_missing_golden () =
  if available then
    with_profile_copy (fun ~dir ~golden:_ _ ->
        let code, _, err = run_cmd ~cwd:dir "check symeq" in
        Alcotest.(check int) "missing golden: exit 1" 1 code;
        Alcotest.(check bool) "names the regenerating command" true
          (contains ~needle:"bench/main.exe symeq" err))

let tests =
  [ Alcotest.test_case "unknown subcommand" `Quick test_unknown_subcommand;
    Alcotest.test_case "unknown flag" `Quick test_unknown_flag;
    Alcotest.test_case "check clean" `Quick test_check_clean;
    Alcotest.test_case "check names the moved row" `Quick
      test_check_names_moved_row;
    Alcotest.test_case "check missing golden" `Quick
      test_check_missing_golden ]
