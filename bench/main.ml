(** Benchmark driver.

    Usage: [main.exe [COMMAND] [options]], where COMMAND is
    - a paper experiment ([table1 fig1 table2 fig3 table3 fig4 ablation
      granularity sweep]), or [all] (the default) for all of them in
      turn: Tables I-III, Figures 1, 3 and 4, and the design ablations;
    - a golden tier ([paper profile faults symeq scale imbalance memtrace
      saturate]): runs the tier's sweep and gate and writes
      BENCH_<tier>.json ([paper] holds Tables II and III and Figures 1,
      3 and 4);
    - [check [TIER...]]: regenerates each named tier (every tier by
      default) in memory and compares it byte for byte with the committed
      BENCH_<tier>.json, printing the first differing line on a mismatch;
    - [wall]: measures real wall-clock, every row in interleaved rounds
      (the median of each side and of the per-round ratio): a run and a
      symbolic kernel verification per benchmark, tree vs compiled
      ([--repeats] rounds); a run of a 400-kernel program per engine,
      parsing, printing, instrumentation and lint on 100 vs 17 copies of
      a program, and the sequential reference run of one loop under 16 vs
      1 enclosing scopes ([4 x repeats + 1] rounds); given
      [--min-speedup], it gates on both tree-vs-compiled suite median
      speedups, on the 400-kernel speedup, on each pass's growth and on
      the lookup-depth growth.

    Exit codes: 0 ok; 1 a failed gate, a mismatching or missing golden;
    2 malformed input (unknown command, flag, value or name). *)

let ppf = Fmt.stdout

let paper =
  Experiments.
    [ ("table1", run_table1); ("fig1", run_fig1); ("table2", run_table2);
      ("fig3", run_fig3); ("table3", run_table3); ("fig4", run_fig4);
      ("ablation", run_ablation); ("granularity", run_granularity);
      ("sweep", run_sweep) ]

let usage =
  Fmt.str
    "usage: main.exe [%s|all]\n\
    \       main.exe %s\n\
    \       main.exe check [TIER ...]\n\
    \       main.exe wall [--benches A,B,..] [--repeats N] [--json FILE]\n\
    \                     [--engine tree|compiled|both] [--min-speedup X]"
    (String.concat "|" (List.map fst paper))
    (String.concat "|" (List.map (fun t -> t.Golden.name) Golden.tiers))

let malformed fmt =
  Fmt.kstr
    (fun msg ->
      Fmt.epr "%s@.%s@." msg usage;
      exit 2)
    fmt

(* Tiny --flag VALUE parser for the wall subcommand.  Any unknown flag or
   missing value is malformed input (same convention as the openarc
   CLI). *)
let parse_flags spec argv =
  let rec go = function
    | [] -> ()
    | flag :: rest -> (
        match (List.assoc_opt flag spec, rest) with
        | None, _ -> malformed "unknown option '%s'" flag
        | Some _, [] -> malformed "option '%s' requires a value" flag
        | Some set, v :: rest' ->
            set v;
            go rest')
  in
  go argv

let wall argv =
  let benches = ref None in
  let json = ref Experiments.wall_path in
  let repeats = ref 5 in
  let engines = ref [ Accrt.Engine.Tree; Accrt.Engine.Compiled ] in
  let min_speedup = ref None in
  parse_flags
    [ ( "--benches",
        fun v ->
          benches :=
            Some (List.filter (fun x -> x <> "") (String.split_on_char ',' v))
      );
      ("--json", fun v -> json := v);
      ( "--repeats",
        fun v ->
          match int_of_string_opt v with
          | Some n when n > 0 -> repeats := n
          | _ -> malformed "invalid repeat count '%s'" v );
      ( "--engine",
        fun v ->
          match (v, Accrt.Engine.of_string v) with
          | "both", _ -> engines := [ Accrt.Engine.Tree; Accrt.Engine.Compiled ]
          | _, Some e -> engines := [ e ]
          | _, None -> malformed "unknown engine '%s'" v );
      ( "--min-speedup",
        fun v ->
          match float_of_string_opt v with
          | Some x when x > 0.0 -> min_speedup := Some x
          | _ -> malformed "invalid speedup bound '%s'" v ) ]
    argv;
  match
    Experiments.run_wall ~json:!json ?names:!benches ~engines:!engines
      ~repeats:!repeats ?min_speedup:!min_speedup ppf
  with
  | 0 -> ()
  | code -> exit code
  | exception Failure msg -> malformed "%s" msg

let check names =
  let tiers =
    if names = [] then Golden.tiers
    else
      List.map
        (fun n ->
          match Golden.find n with
          | Some t -> t
          | None -> malformed "unknown tier '%s'" n)
        names
  in
  let failed = List.filter (fun t -> not (Golden.check ppf t)) tiers in
  if failed <> [] then begin
    Fmt.epr "check: %d of %d golden(s) failed: %s@." (List.length failed)
      (List.length tiers)
      (String.concat ", " (List.map Golden.path failed));
    exit 1
  end

let () =
  (match List.tl (Array.to_list Sys.argv) with
  | [] | "all" :: _ ->
      List.iteri
        (fun i (_, run) ->
          if i > 0 then Fmt.pf ppf "@.";
          run ppf)
        paper
  | "check" :: names -> check names
  | "wall" :: argv -> wall argv
  | cmd :: _ -> (
      match (List.assoc_opt cmd paper, Golden.find cmd) with
      | Some run, _ -> run ppf
      | None, Some t -> if not (Golden.write ppf t) then exit 1
      | None, None -> malformed "unknown experiment '%s'" cmd));
  Fmt.pf ppf "@."
