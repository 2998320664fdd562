(** Benchmark driver: regenerates every table and figure of the paper
    (Table I-III, Figures 1, 3, 4, plus the design ablations), then runs a
    Bechamel micro-benchmark suite over the compiler pipeline stages.

    Usage: [main.exe [table1|fig1|table2|fig3|table3|fig4|ablation|granularity|sweep|faults|symeq|symeq-smoke|profile|profile-smoke|scale|scale-smoke|imbalance|imbalance-smoke|memtrace|memtrace-smoke|saturate|saturate-smoke|trend|regress|wall|micro|all]]
    With no argument everything runs.  [trend] appends per-benchmark run
    summaries to BENCH_trend.jsonl; [regress] diffs the current sweep
    against the committed BENCH_profile.json under per-benchmark
    tolerances and exits 1 with a culprit report on regression; [wall]
    measures real interpreter wall-clock per benchmark and engine
    (median-of-N) and can gate on the tree-vs-compiled speedup. *)

let ppf = Fmt.stdout

(* -------- Bechamel micro-benchmarks: one per experiment's machinery ---- *)

let jacobi_src = Suite.Jacobi.bench.Suite.Bench_def.source

let micro_tests () =
  let open Bechamel in
  let parse () = ignore (Minic.Parser.parse_string jacobi_src) in
  let translate =
    let prog = Minic.Parser.parse_string jacobi_src in
    let env = Minic.Typecheck.check prog in
    fun () -> ignore (Codegen.Translate.translate env prog)
  in
  let instrument =
    let prog = Minic.Parser.parse_string jacobi_src in
    let env = Minic.Typecheck.check prog in
    let tp = Codegen.Translate.translate env prog in
    fun () -> ignore (Codegen.Checkgen.instrument tp)
  in
  let execute =
    let prog = Minic.Parser.parse_string jacobi_src in
    let env = Minic.Typecheck.check prog in
    let tp = Codegen.Translate.translate env prog in
    fun () -> ignore (Accrt.Interp.run ~coherence:false tp)
  in
  let verify =
    let prog = Minic.Parser.parse_string jacobi_src in
    fun () -> ignore (Openarc_core.Kernel_verify.verify prog)
  in
  [ Test.make ~name:"fig1-baseline-run" (Staged.stage execute);
    Test.make ~name:"table2-fig3-kernel-verification" (Staged.stage verify);
    Test.make ~name:"table3-fig4-instrumentation" (Staged.stage instrument);
    Test.make ~name:"pipeline-parse" (Staged.stage parse);
    Test.make ~name:"pipeline-translate" (Staged.stage translate) ]

let run_micro () =
  let open Bechamel in
  let instances = Toolkit.Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 10) ()
  in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let raw =
    Benchmark.all cfg instances
      (Test.make_grouped ~name:"openarc" ~fmt:"%s %s" (micro_tests ()))
  in
  let results = List.map (fun i -> Analyze.all ols i raw) instances in
  let results = Analyze.merge ols instances results in
  Fmt.pf ppf "@.Bechamel micro-benchmarks (ns per run):@.";
  Hashtbl.iter
    (fun _name tbl ->
      Hashtbl.iter
        (fun test result ->
          match Analyze.OLS.estimates result with
          | Some (t :: _) -> Fmt.pf ppf "  %-55s %12.0f@." test t
          | Some [] | None -> Fmt.pf ppf "  %-55s %12s@." test "n/a")
        tbl)
    results

let usage =
  "usage: main.exe \
   [table1|fig1|table2|fig3|table3|fig4|ablation|granularity|sweep|faults|symeq|symeq-smoke|\
   profile|profile-smoke|scale|scale-smoke|imbalance|imbalance-smoke|\
   memtrace|memtrace-smoke|saturate|saturate-smoke|trend|regress|wall|micro|all] \
   [options]\n\
  \  trend options:   --out FILE  --benches A,B,..  --label TEXT\n\
  \                   --devices N  --schedule block|cyclic\n\
  \  regress options: --baseline FILE  --benches A,B,..  --json FILE\n\
  \                   --saturate FILE\n\
  \  wall options:    --benches A,B,..  --repeats N  --json FILE\n\
  \                   --engine tree|compiled|both  --min-speedup X"

(* Tiny --flag VALUE parser for the trend/regress subcommands.  Any
   unknown flag or missing value is malformed input: usage to stderr,
   exit 2 (same convention as the openarc CLI). *)
let parse_flags spec argv =
  let rec go = function
    | [] -> ()
    | flag :: rest -> (
        match List.assoc_opt flag spec with
        | None ->
            Fmt.epr "unknown option '%s'@.%s@." flag usage;
            exit 2
        | Some set -> (
            match rest with
            | [] ->
                Fmt.epr "option '%s' requires a value@.%s@." flag usage;
                exit 2
            | v :: rest' ->
                set v;
                go rest'))
  in
  go argv

let split_benches s =
  match String.split_on_char ',' s with
  | [] -> None
  | l -> Some (List.filter (fun x -> x <> "") l)

let () =
  let cmd = if Array.length Sys.argv > 1 then Sys.argv.(1) else "all" in
  let rest =
    Array.to_list (Array.sub Sys.argv 2 (max 0 (Array.length Sys.argv - 2)))
  in
  (match cmd with
  | "table1" -> Experiments.run_table1 ppf
  | "fig1" -> Experiments.run_fig1 ppf
  | "table2" -> Experiments.run_table2 ppf
  | "fig3" -> Experiments.run_fig3 ppf
  | "table3" -> Experiments.run_table3 ppf
  | "fig4" -> Experiments.run_fig4 ppf
  | "ablation" -> Experiments.run_ablation ppf
  | "granularity" -> Experiments.run_granularity ppf
  | "sweep" -> Experiments.run_sweep ppf
  | "faults" -> Experiments.run_faults ~json:"BENCH_faults.json" ppf
  | "symeq" -> Experiments.run_symeq ppf
  | "symeq-smoke" -> (
      try Experiments.run_symeq_smoke ppf
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1)
  | "profile" -> Experiments.run_profile ppf
  | "profile-smoke" -> (
      try Experiments.run_profile_smoke ppf
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1)
  | "scale" ->
      let code = Experiments.run_scale ppf in
      if code <> 0 then exit code
  | "scale-smoke" -> (
      try Experiments.run_scale_smoke ppf
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1)
  | "imbalance" ->
      let code = Experiments.run_imbalance ppf in
      if code <> 0 then exit code
  | "imbalance-smoke" -> (
      try Experiments.run_imbalance_smoke ppf
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1)
  | "memtrace" ->
      let code = Experiments.run_memtrace ppf in
      if code <> 0 then exit code
  | "memtrace-smoke" -> (
      try Experiments.run_memtrace_smoke ppf
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1)
  | "saturate" ->
      let code = Experiments.run_saturate ppf in
      if code <> 0 then exit code
  | "saturate-smoke" -> (
      try Experiments.run_saturate_smoke ppf
      with Failure msg ->
        Fmt.epr "%s@." msg;
        exit 1)
  | "trend" ->
      let out = ref Experiments.trend_path in
      let benches = ref None in
      let label = ref "" in
      let devices = ref 1 in
      let schedule = ref Gpusim.Device_set.Block in
      parse_flags
        [ ("--out", fun v -> out := v);
          ("--benches", fun v -> benches := split_benches v);
          ("--label", fun v -> label := v);
          ( "--devices",
            fun v ->
              match int_of_string_opt v with
              | Some n when n >= 1 -> devices := n
              | _ ->
                  Fmt.epr "invalid device count '%s'@.%s@." v usage;
                  exit 2 );
          ( "--schedule",
            fun v ->
              match Gpusim.Device_set.schedule_of_string v with
              | Ok s -> schedule := s
              | Error e ->
                  Fmt.epr "invalid schedule: %s@.%s@." e usage;
                  exit 2 ) ]
        rest;
      (try
         Experiments.run_trend ~out:!out ?names:!benches ~label:!label
           ~devices:!devices ~schedule:!schedule ppf
       with Failure msg ->
         Fmt.epr "%s@." msg;
         exit 2)
  | "regress" ->
      let baseline = ref Experiments.profile_path in
      let benches = ref None in
      let json = ref None in
      let saturate = ref None in
      parse_flags
        [ ("--baseline", fun v -> baseline := v);
          ("--benches", fun v -> benches := split_benches v);
          ("--json", fun v -> json := Some v);
          ("--saturate", fun v -> saturate := Some v) ]
        rest;
      let code =
        try
          Experiments.run_regress ~baseline:!baseline ?names:!benches
            ?json:!json ?saturate:!saturate ppf
        with Failure msg ->
          Fmt.epr "%s@." msg;
          exit 2
      in
      if code <> 0 then exit code
  | "wall" ->
      (* Malformed values (bad engine name, non-numeric counts) are usage
         errors: usage to stderr, exit 2 — same contract as unknown
         flags. *)
      let malformed msg =
        Fmt.epr "%s@.%s@." msg usage;
        exit 2
      in
      let benches = ref None in
      let json = ref Experiments.wall_path in
      let repeats = ref 5 in
      let engines =
        ref [ Accrt.Engine.Tree; Accrt.Engine.Compiled ]
      in
      let min_speedup = ref None in
      parse_flags
        [ ("--benches", fun v -> benches := split_benches v);
          ("--json", fun v -> json := v);
          ( "--repeats",
            fun v ->
              match int_of_string_opt v with
              | Some n when n > 0 -> repeats := n
              | _ -> malformed (Fmt.str "invalid repeat count '%s'" v) );
          ( "--engine",
            fun v ->
              match (v, Accrt.Engine.of_string v) with
              | "both", _ ->
                  engines := [ Accrt.Engine.Tree; Accrt.Engine.Compiled ]
              | _, Some e -> engines := [ e ]
              | _, None -> malformed (Fmt.str "unknown engine '%s'" v) );
          ( "--min-speedup",
            fun v ->
              match float_of_string_opt v with
              | Some x when x > 0.0 -> min_speedup := Some x
              | _ -> malformed (Fmt.str "invalid speedup bound '%s'" v) ) ]
        rest;
      let code =
        try
          Experiments.run_wall ~json:!json ?names:!benches
            ~engines:!engines ~repeats:!repeats ?min_speedup:!min_speedup
            ppf
        with Failure msg ->
          Fmt.epr "%s@." msg;
          exit 2
      in
      if code <> 0 then exit code
  | "micro" -> run_micro ()
  | "all" ->
      Experiments.run_all ppf;
      Fmt.pf ppf "@.";
      Experiments.run_symeq ppf;
      run_micro ()
  | other ->
      Fmt.epr "unknown experiment '%s'@.%s@." other usage;
      exit 2);
  Fmt.pf ppf "@."
