(* The one JSON printer and its strict reader: escaping, empty
   containers, the document layout rule, verbatim numbers, round trips
   over generated values, strict number and escape syntax, the integer
   accessor, and canonical form — every exporter's document on every
   benchmark, and every committed golden, is a fixpoint of parse-then-
   print. *)

module P = Obs.Pjson

let show = P.to_line

let check_doc name expected v =
  Alcotest.(check string) name expected (P.to_string v)

(* ----------------------------- printer ------------------------------ *)

let test_escaping () =
  Alcotest.(check string) "quote, backslash, newline, tab"
    {|"a\"b\\c\nd\te"|}
    (show (P.Str "a\"b\\c\nd\te"));
  Alcotest.(check string) "other control bytes as \\u00XX"
    {|"\u0000\u0001\u000d\u001f"|}
    (show (P.Str "\000\001\r\031"));
  Alcotest.(check string) "bytes from 0x20 up print as they are"
    "\" /\127\195\169\226\136\128\""
    (show (P.Str " /\127\195\169\226\136\128"));
  Alcotest.(check string) "keys escape too" {|{"k\"\n": null}|}
    (show (P.Obj [ ("k\"\n", P.Null) ]))

let test_empty_containers () =
  check_doc "empty array" "[]\n" (P.Arr []);
  check_doc "empty object" "{}\n" (P.Obj []);
  check_doc "empty containers inside" "{\"a\": [], \"o\": {}}\n"
    (P.Obj [ ("a", P.Arr []); ("o", P.Obj []) ]);
  Alcotest.(check string) "line form" "[{}, []]"
    (show (P.Arr [ P.Obj []; P.Arr [] ]))

let test_layout () =
  check_doc "scalars and scalar arrays stay on one line"
    "{\"a\": 1, \"b\": [1, \"x\", true, null], \"c\": {\"d\": false}}\n"
    (P.Obj
       [ ("a", P.int 1);
         ("b", P.Arr [ P.int 1; P.Str "x"; P.Bool true; P.Null ]);
         ("c", P.Obj [ ("d", P.Bool false) ]) ]);
  check_doc "an array of objects breaks, one element per line"
    "[\n  {\"a\": 1},\n  {\"a\": 2}\n]\n"
    (P.Arr [ P.Obj [ ("a", P.int 1) ]; P.Obj [ ("a", P.int 2) ] ]);
  check_doc "one container element is enough to break"
    "[\n  1,\n  []\n]\n"
    (P.Arr [ P.int 1; P.Arr [] ]);
  check_doc "indent grows per enclosing broken array"
    "{\"rows\": [\n  {\"sub\": [\n    [1],\n    [2]\n  ]},\n  3\n]}\n"
    (P.Obj
       [ ( "rows",
           P.Arr
             [ P.Obj
                 [ ("sub", P.Arr [ P.Arr [ P.int 1 ]; P.Arr [ P.int 2 ] ]) ];
               P.int 3 ] ) ]);
  Alcotest.(check string) "to_line never breaks"
    "{\"rows\": [{\"a\": 1}, [2]]}"
    (show
       (P.Obj
          [ ("rows", P.Arr [ P.Obj [ ("a", P.int 1) ]; P.Arr [ P.int 2 ] ]) ]))

let test_numbers () =
  Alcotest.(check string) "fixed keeps its decimals" "[0.000120000, 1.50, -3]"
    (show (P.Arr [ P.fixed 9 0.00012; P.fixed 2 1.5; P.int (-3) ]));
  Alcotest.(check string) "exp" "1.250000000000e-05" (show (P.exp 12 1.25e-5));
  Alcotest.(check string) "non-finite numbers become null" "[null, null, null]"
    (show
       (P.Arr
          [ P.fixed 3 Float.nan; P.fixed 3 Float.infinity;
            P.exp 3 Float.neg_infinity ]));
  List.iter
    (fun text ->
      Alcotest.(check string) ("printed verbatim: " ^ text) text
        (show (P.parse text)))
    [ "0"; "-0"; "1.000"; "0.100000000"; "1e400"; "-2.5E-7";
      "12345678901234567890"; "1.000000000000e+00" ]

(* ------------------------------ reader ------------------------------ *)

let test_strict_numbers () =
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects " ^ text) true
        (Result.is_error (P.parse_result text)))
    [ "+42"; "042"; "42."; ".5"; "-"; "1e"; "1e+"; "0x10"; "1.5.2"; "--1";
      "[1,]"; "{\"a\":1,}"; "nan"; "Infinity" ];
  List.iter
    (fun text ->
      Alcotest.(check bool) ("accepts " ^ text) true
        (Result.is_ok (P.parse_result text)))
    [ "42"; "-0"; "0.5"; "4.2e1"; "4E+1"; "4e-1"; " [ 1 , 2 ] " ]

let test_unicode_escapes () =
  let str text = P.str_exn (P.parse text) in
  Alcotest.(check string) "control byte" "x\001y" (str {|"x\u0001y"|});
  Alcotest.(check string) "two-byte UTF-8" "\195\169" (str {|"\u00e9"|});
  Alcotest.(check string) "three-byte UTF-8" "\226\136\128"
    (str {|"\u2200"|});
  Alcotest.(check string) "surrogate pair" "\240\159\152\128"
    (str {|"\ud83d\ude00"|});
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects " ^ text) true
        (Result.is_error (P.parse_result text)))
    [ {|"\ud83d"|}; {|"\ude00"|}; {|"\ud83dx"|}; {|"\u12"|}; {|"\u12g4"|};
      "\"a\nb\"" ]

let test_integer_accessor () =
  let int text = P.int_exn (P.parse text) in
  Alcotest.(check int) "integer" 42 (int "42");
  Alcotest.(check int) "negative" (-7) (int "-7");
  List.iter
    (fun text ->
      Alcotest.(check bool) ("rejects " ^ text) true
        (match int text with _ -> false | exception P.Bad _ -> true))
    [ "1.5"; "2.0"; "1e400"; "1e2"; "99999999999999999999"; "\"3\""; "null" ];
  Alcotest.(check bool) "num rejects a number too large for a float" true
    (P.num (P.parse "1e400") = None)

(* ---------------------------- round trip ---------------------------- *)

(* Generated values: strings over every byte class (control bytes
   included), number texts in JSON's grammar, nested containers. *)
let gen_value =
  let open QCheck.Gen in
  let byte =
    frequency
      [ (3, char_range 'a' 'z'); (2, char_range '\000' '\031');
        (1, oneofl [ '"'; '\\'; '/'; ' '; '\127' ]);
        (1, char_range '\128' '\255') ]
  in
  let str = string_size ~gen:byte (0 -- 8) in
  let digits = string_size ~gen:(char_range '0' '9') (1 -- 4) in
  let number =
    map
      (fun (neg, (lead, more), frac, exp) ->
        String.concat ""
          [ (if neg then "-" else "");
            (if lead = 0 then "0" else string_of_int lead ^ more);
            (match frac with Some f -> "." ^ f | None -> "");
            (match exp with Some (e, ds) -> e ^ ds | None -> "") ])
      (quad bool
         (pair (0 -- 9) (string_size ~gen:(char_range '0' '9') (0 -- 3)))
         (opt digits)
         (opt (pair (oneofl [ "e"; "E"; "e+"; "E-" ]) digits)))
  in
  let scalar =
    frequency
      [ (1, return P.Null); (1, map (fun b -> P.Bool b) bool);
        (3, map (fun s -> P.Num s) number); (3, map (fun s -> P.Str s) str) ]
  in
  sized
  @@ fix (fun self n ->
         if n <= 0 then scalar
         else
           frequency
             [ (2, scalar);
               (1, map (fun l -> P.Arr l) (list_size (0 -- 4) (self (n / 3))));
               ( 1,
                 map
                   (fun l -> P.Obj l)
                   (list_size (0 -- 4) (pair str (self (n / 3)))) ) ])

let arb_value = QCheck.make ~print:P.to_line gen_value

let roundtrip =
  QCheck.Test.make ~count:500 ~name:"parse inverts to_string and to_line"
    arb_value (fun v ->
      P.parse (P.to_string v) = v && P.parse (P.to_line v) = v)

(* -------------------------- canonical form -------------------------- *)

let canonical what doc =
  Alcotest.(check string) (what ^ ": canonical") doc (P.to_string (P.parse doc))

let canonical_lines what jsonl =
  List.iter
    (fun line ->
      if line <> "" then
        Alcotest.(check string) (what ^ ": canonical line") line
          (P.to_line (P.parse line)))
    (String.split_on_char '\n' jsonl)

let categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

(* Every exporter's document on one benchmark.  The program is
   instrumented, so the audit exporter sees real coherence transitions. *)
let exporters_canonical (b : Suite.Bench_def.t) () =
  let name = b.name in
  let prog = Minic.Parser.parse_string ~file:name b.source in
  let tp =
    Codegen.Checkgen.instrument (Openarc_core.Compiler.compile_program prog)
  in
  let timelines (o : Accrt.Interp.outcome) =
    Array.map
      (fun d -> d.Gpusim.Device.timeline)
      o.Accrt.Interp.devset.Gpusim.Device_set.devices
  in
  let profiles =
    List.map
      (fun devices ->
        let tr = Obs.Trace.create () and audit = Obs.Audit.create () in
        let lg = Obs.Ledger.create ~devices ~schedule:"block" in
        let plan =
          Result.get_ok (Gpusim.Fault_plan.of_spec ~seed:42 "xfer-fail")
        in
        let o =
          Accrt.Interp.exec
            { Accrt.Interp.default with
              seed = 42; timeline = true; devices; plan = Some plan;
              resilience = Accrt.Resilience.Retry }
            { Accrt.Interp.trace = Some tr; ledger = Some lg;
              audit = Some audit }
            tp
        in
        let what = Fmt.str "%s x%d" name devices in
        Alcotest.(check bool) (what ^ " audit has transitions") true
          (Obs.Audit.length audit > 0);
        let p = Obs.Profile.of_trace ~categories tr in
        canonical (what ^ " profile") (Obs.Profile.to_json ~name ~seed:42 p);
        canonical_lines (what ^ " events") (Obs.Trace.to_jsonl tr);
        canonical_lines (what ^ " audit") (Obs.Audit.to_jsonl audit);
        canonical (what ^ " chrome")
          (P.to_string
             (Obs.Chrome.of_run ~trace:(Some tr) ~ledger:(Some lg)
                (timelines o)));
        let cm = o.Accrt.Interp.device.Gpusim.Device.cm in
        canonical (what ^ " memtrace")
          (Obs.Ledger.to_json ~name ~seed:42
             (Obs.Ledger.analyze lg
                ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
                ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth));
        canonical (what ^ " faults")
          (Accrt.Resilience.report_json ~seed:42 ~plan
             ~policy:Accrt.Resilience.Retry ~metrics:(Accrt.Interp.metrics o)
             o.Accrt.Interp.resilience);
        (match o.Accrt.Interp.imbalance with
        | Some il ->
            canonical (what ^ " imbalance")
              (P.to_string
                 (Obs.Imbalance.json ~name ~seed:42
                    (Obs.Imbalance.analyze il)))
        | None -> ());
        p)
      [ 1; 2 ]
  in
  (match profiles with
  | [ p1; p2 ] ->
      canonical (name ^ " diff")
        (Obs.Diff.to_json (Obs.Diff.diff ~before:p1 ~after:p2 ()))
  | _ -> ());
  let v = Openarc_core.Kernel_verify.verify ~symbolic:true ~trace:true prog in
  canonical (name ^ " verify chrome")
    (P.to_string
       (Obs.Chrome.of_timeline v.Openarc_core.Kernel_verify.timeline));
  Option.iter
    (fun result ->
      canonical (name ^ " symeq")
        (Symeq.Report.to_json { Symeq.Report.program = name; result }))
    v.Openarc_core.Kernel_verify.symeq;
  canonical (name ^ " lint")
    (Lint.Diag.to_json
       (Lint.run_tprog
          (Openarc_core.Compiler.compile_program
             ~opts:Codegen.Options.fault_injection prog)));
  canonical (name ^ " saturate")
    (Saturate.to_json
       (Saturate.run
          ~config:
            { Saturate.default_config with
              Saturate.max_steps = 1; check_devices = [ 1 ] }
          ~name ~outputs:b.outputs prog));
  canonical (name ^ " session")
    (Openarc_core.Session.to_json ~name
       (Openarc_core.Session.optimize ~max_iterations:2 ~outputs:b.outputs
          prog));
  let m =
    Openarc_core.Fault_matrix.run ~seed:42
      ~kinds:[ Gpusim.Fault_plan.Xfer_fail ] ~trace:true
      [ { Openarc_core.Fault_matrix.s_name = name; s_source = b.source;
          s_outputs = b.outputs } ]
  in
  canonical (name ^ " fault matrix")
    (P.to_string (Openarc_core.Fault_matrix.json m));
  canonical (name ^ " fault matrix trace")
    (P.to_string (Openarc_core.Fault_matrix.trace m))

(* The committed goldens, BENCH_wall.json included. *)
let test_goldens_canonical () =
  List.iter
    (fun tier ->
      let file = "BENCH_" ^ tier ^ ".json" in
      let path =
        if Sys.file_exists (Filename.concat ".." file) then
          Filename.concat ".." file
        else file
      in
      canonical file (In_channel.with_open_bin path In_channel.input_all))
    [ "profile"; "faults"; "symeq"; "scale"; "imbalance"; "memtrace";
      "saturate"; "wall" ]

let tests =
  [ Alcotest.test_case "escaping" `Quick test_escaping;
    Alcotest.test_case "empty containers" `Quick test_empty_containers;
    Alcotest.test_case "layout rule" `Quick test_layout;
    Alcotest.test_case "numbers verbatim" `Quick test_numbers;
    Alcotest.test_case "strict numbers" `Quick test_strict_numbers;
    Alcotest.test_case "unicode escapes" `Quick test_unicode_escapes;
    Alcotest.test_case "integer accessor" `Quick test_integer_accessor;
    QCheck_alcotest.to_alcotest roundtrip;
    Alcotest.test_case "committed goldens are canonical" `Quick
      test_goldens_canonical ]
  @ List.map
      (fun (b : Suite.Bench_def.t) ->
        Alcotest.test_case ("exporters canonical: " ^ b.name) `Quick
          (exporters_canonical b))
      Suite.Registry.all
