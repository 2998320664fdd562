(* Integration tests of the bench driver's [wall] tier: the exit-2 usage
   convention for malformed flags, the bench-wall JSON report shape (run
   and verify timers, the many-kernel row, the lookup-depth row), the
   single-engine mode, the --min-speedup gate on both suite medians (both
   directions — impossible bounds must fail, a sub-1.0 sanity bound must
   pass), and the fixed bounds that gate also holds the many-kernel row,
   the static passes and the lookup depth to. *)

let exe = "../bench/main.exe"

let available = Sys.file_exists exe

let run_cmd args =
  let out = Filename.temp_file "wall_cli" ".out" in
  let err = Filename.temp_file "wall_cli" ".err" in
  let cmd =
    Fmt.str "%s %s > %s 2> %s" exe args (Filename.quote out)
      (Filename.quote err)
  in
  let code = Sys.command cmd in
  let read p =
    let ic = open_in_bin p in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    Sys.remove p;
    s
  in
  let o = read out and e = read err in
  (code, o, e)

let contains ~needle s =
  let n = String.length needle and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = needle || go (i + 1)) in
  go 0

let read_json path =
  let ic = open_in_bin path in
  let doc = really_input_string ic (in_channel_length ic) in
  close_in ic;
  Sys.remove path;
  Obs.Pjson.parse doc

let test_bad_flags () =
  if available then begin
    let code, out, err = run_cmd "wall --engine frobnicate" in
    Alcotest.(check int) "bad engine: exit 2" 2 code;
    Alcotest.(check string) "nothing on stdout" "" out;
    Alcotest.(check bool) "engine named on stderr" true
      (contains ~needle:"unknown engine 'frobnicate'" err);
    Alcotest.(check bool) "usage on stderr" true
      (contains ~needle:"usage: main.exe" err);
    let code, _, err = run_cmd "wall --repeats zero" in
    Alcotest.(check int) "bad repeats: exit 2" 2 code;
    Alcotest.(check bool) "repeats named" true
      (contains ~needle:"invalid repeat count 'zero'" err);
    let code, _, err = run_cmd "wall --repeats 0" in
    Alcotest.(check int) "zero repeats: exit 2" 2 code;
    Alcotest.(check bool) "zero repeats named" true
      (contains ~needle:"invalid repeat count '0'" err);
    let code, _, err = run_cmd "wall --min-speedup fast" in
    Alcotest.(check int) "bad speedup bound: exit 2" 2 code;
    Alcotest.(check bool) "bound named" true
      (contains ~needle:"invalid speedup bound 'fast'" err);
    let code, _, err = run_cmd "wall --min-speedup" in
    Alcotest.(check int) "missing value: exit 2" 2 code;
    Alcotest.(check bool) "missing value named" true
      (contains ~needle:"requires a value" err);
    let code, _, err = run_cmd "wall --benches nosuchbenchmark" in
    Alcotest.(check int) "unknown benchmark: exit 2" 2 code;
    Alcotest.(check bool) "benchmark named" true
      (contains ~needle:"unknown benchmark" err)
  end

(* The lookup-depth row: the reference run under 1 and 16 scopes, timed
   whichever engines the tier compares (it runs the tree walker only). *)
let check_lookup_depth v =
  let depth = Option.get (Obs.Pjson.member "lookup_depth" v) in
  Alcotest.(check (option (list string))) "lookup-depth scopes"
    (Some [ "1"; "16" ])
    (match Obs.Pjson.member "scopes" depth with
    | Some (Obs.Pjson.Arr xs) ->
        Some
          (List.map
             (function Obs.Pjson.Num x -> x | _ -> "not a number")
             xs)
    | _ -> None);
  List.iter
    (fun field ->
      Alcotest.(check bool) ("lookup-depth " ^ field ^ " positive") true
        (match Obs.Pjson.member field depth with
        | Some (Obs.Pjson.Num x) -> float_of_string x > 0.0
        | _ -> false))
    [ "x16_s"; "x1_s"; "growth" ]

let test_wall_report () =
  if available then begin
    let json = Filename.temp_file "wall_report" ".json" in
    let code, out, err =
      run_cmd
        (Fmt.str "wall --benches jacobi,ep --repeats 1 --json %s"
           (Filename.quote json))
    in
    Alcotest.(check int) "wall: exit 0" 0 code;
    Alcotest.(check string) "quiet stderr" "" err;
    Alcotest.(check bool) "names both engines" true
      (contains ~needle:"tree" out && contains ~needle:"compiled" out);
    let v = read_json json in
    Alcotest.(check (option string)) "schema"
      (Some "openarc.obs.bench-wall")
      (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
    let rows =
      Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "benchmarks" v))
    in
    Alcotest.(check int) "two benchmarks" 2 (List.length rows);
    List.iter
      (fun rv ->
        List.iter
          (fun field ->
            Alcotest.(check bool)
              (field ^ " present and positive")
              true
              (match Obs.Pjson.member field rv with
              | Some (Obs.Pjson.Num x) -> float_of_string x > 0.0
              | _ -> false))
          [ "tree_s"; "compiled_s"; "speedup"; "verify_tree_s";
            "verify_compiled_s"; "verify_speedup" ])
      rows;
    List.iter
      (fun field ->
        Alcotest.(check bool) (field ^ " present") true
          (match Obs.Pjson.member field v with
          | Some (Obs.Pjson.Num x) -> float_of_string x > 0.0
          | _ -> false))
      [ "median_speedup"; "median_verify_speedup"; "instrument_growth";
        "lint_growth" ];
    let many = Option.get (Obs.Pjson.member "many_kernels" v) in
    Alcotest.(check (option string)) "many-kernel copies" (Some "100")
      (match Obs.Pjson.member "copies" many with
      | Some (Obs.Pjson.Num x) -> Some x
      | _ -> None);
    List.iter
      (fun field ->
        Alcotest.(check bool) ("many-kernel " ^ field ^ " positive") true
          (match Obs.Pjson.member field many with
          | Some (Obs.Pjson.Num x) -> float_of_string x > 0.0
          | _ -> false))
      [ "tree_s"; "compiled_s"; "speedup" ];
    check_lookup_depth v
  end

let test_single_engine () =
  if available then begin
    let json = Filename.temp_file "wall_single" ".json" in
    let code, _, _ =
      run_cmd
        (Fmt.str
           "wall --benches jacobi --repeats 1 --engine compiled --json %s"
           (Filename.quote json))
    in
    Alcotest.(check int) "single engine: exit 0" 0 code;
    let v = read_json json in
    let rows =
      Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "benchmarks" v))
    in
    List.iter
      (fun rv ->
        List.iter
          (fun field ->
            Alcotest.(check bool) (field ^ " present") true
              (Obs.Pjson.member field rv <> None))
          [ "compiled_s"; "verify_compiled_s" ];
        List.iter
          (fun field ->
            Alcotest.(check bool) (field ^ " absent") true
              (Obs.Pjson.member field rv = None))
          [ "tree_s"; "verify_tree_s"; "speedup"; "verify_speedup" ])
      rows;
    let many = Option.get (Obs.Pjson.member "many_kernels" v) in
    Alcotest.(check bool) "many-kernel compiled_s present" true
      (Obs.Pjson.member "compiled_s" many <> None);
    Alcotest.(check bool) "many-kernel tree_s and speedup absent" true
      (Obs.Pjson.member "tree_s" many = None
      && Obs.Pjson.member "speedup" many = None);
    check_lookup_depth v
  end

(* Given --min-speedup, the gate also holds the many-kernel speedup, both
   static passes' growth and the lookup-depth growth to fixed bounds and
   prints one verdict each; returns which fail.  These are wall-clock
   ratios, so a loaded machine may put one past its bound, and the exit
   code must then say so. *)
let fixed_verdicts out =
  List.map
    (fun what ->
      let within = contains ~needle:("wall: " ^ what ^ " ") out
      and over = contains ~needle:("WALL REGRESSION: " ^ what ^ " ") out in
      Alcotest.(check bool) (what ^ " verdict") true (within <> over);
      over)
    [ "many-kernel speedup"; "median instrument growth";
      "median lint growth"; "lookup-depth growth" ]

let test_min_speedup_gate () =
  if available then begin
    let json = Filename.temp_file "wall_gate" ".json" in
    let args extra =
      Fmt.str "wall --benches jacobi --repeats 1 --json %s %s"
        (Filename.quote json) extra
    in
    (* An impossible bound must trip the gate on both medians... *)
    let code, out, _ = run_cmd (args "--min-speedup 1000000") in
    Alcotest.(check int) "impossible bound: exit 1" 1 code;
    List.iter
      (fun label ->
        Alcotest.(check bool) (label ^ " flagged") true
          (contains ~needle:("WALL REGRESSION: median " ^ label ^ " ") out))
      [ "speedup"; "verify speedup" ];
    ignore (fixed_verdicts out);
    (* ...and a trivial one must pass (any positive speedup clears 0.01). *)
    let code, out, _ = run_cmd (args "--min-speedup 0.01") in
    Sys.remove json;
    List.iter
      (fun label ->
        Alcotest.(check bool) (label ^ " gate reported") true
          (contains ~needle:("wall: median " ^ label ^ " ") out))
      [ "speedup"; "verify speedup" ];
    let over = List.exists Fun.id (fixed_verdicts out) in
    Alcotest.(check int) "trivial bound: exit 0 unless a fixed bound fails"
      (if over then 1 else 0)
      code
  end

let tests =
  [ Alcotest.test_case "bad flags" `Quick test_bad_flags;
    Alcotest.test_case "wall report" `Quick test_wall_report;
    Alcotest.test_case "single engine" `Quick test_single_engine;
    Alcotest.test_case "min-speedup gate" `Quick test_min_speedup_gate ]
