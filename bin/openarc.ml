(** The [openarc] command-line driver.

    Subcommands mirror the workflows of the paper:
    - [compile]  : translate and show the generated CUDA-style program
    - [run]      : execute on the simulated GPU, with optional coherence
                   profiling (memory-transfer verification, §III-B)
    - [profile]  : span-based tracing with per-directive cost attribution
                   (Figure 3/4 breakdown), coherence audit log, flamegraph
    - [analyze]  : shard-level imbalance analysis over a device set, with
                   a block/cyclic schedule verdict from re-costing the
                   recorded iteration weights
    - [verify]   : kernel verification against the sequential reference
                   (§III-A), with OpenARC-style [verificationOptions]
    - [saturate] : search-based automatic directive optimization — apply
                   the ledger's hoist/present/merge verdicts (plus
                   structural kernel fusion) greedily with rollback,
                   validating every rewrite before it sticks
    - [optimize] : the interactive optimization loop of Figure 2, driven by
                   a scripted programmer
    - [session]  : the same loop with structured per-iteration telemetry
                   and inter-iteration profile diffs
    - [diff-profile]: compare two per-directive cost profiles (the
                   canonical [profile --json] documents)
    - [lint]     : static directive diagnostics — race/privatization
                   errors and compile-time transfer classification
    - [benchmarks]: list the bundled benchmark suite

    Exit codes: 0 success, 1 failed run / lint findings, 2 malformed
    input.

    A [FILE] argument of the form [bench:NAME[:opt]] loads a bundled
    benchmark instead of a file. *)

open Cmdliner

(* The bundled benchmark and variant a [bench:NAME[:VARIANT]] argument
   names, or [None] for a file path. *)
let bench_of_path path =
  if String.length path > 6 && String.sub path 0 6 = "bench:" then begin
    let rest = String.sub path 6 (String.length path - 6) in
    let name, variant =
      match String.index_opt rest ':' with
      | Some i ->
          (String.sub rest 0 i,
           String.sub rest (i + 1) (String.length rest - i - 1))
      | None -> (rest, "source")
    in
    match Suite.Registry.find name with
    | None -> Fmt.failwith "unknown benchmark '%s'" name
    | Some b -> Some (b, variant)
  end
  else None

let load_source path =
  match bench_of_path path with
  | Some (b, variant) ->
      if variant = "opt" || variant = "optimized" then
        b.Suite.Bench_def.optimized
      else b.Suite.Bench_def.source
  | None ->
      let ic = open_in_bin path in
      let n = in_channel_length ic in
      let src = really_input_string ic n in
      close_in ic;
      src

let file_arg =
  Arg.(required
       & pos 0 (some string) None
       & info [] ~docv:"FILE" ~doc:"Mini-C/OpenACC source file, or bench:NAME")

let fault_arg =
  Arg.(value & flag
       & info [ "fault-injection" ]
           ~doc:"Disable automatic privatization/reduction recognition and \
                 strip private/reduction clauses (Table II configuration)")

let opts_of_fault fault =
  if fault then Codegen.Options.fault_injection else Codegen.Options.default

(* The one loader every command reads FILE through.  [parse] names the
   program [name] in diagnostics ("<input>"; lint passes FILE itself) and
   applies --fault-injection's clause stripping; [load] compiles the result
   through the one front end.  [obs] records the parse phase span, as
   {!Openarc_core.Compiler.compile} does. *)
let parse ?obs ?(name = "<input>") ~fault file =
  let src = load_source file in
  let prog =
    match obs with
    | None -> Minic.Parser.parse_string ~file:name src
    | Some tr ->
        Obs.Trace.with_span tr Obs.Trace.Phase "parse" (fun () ->
            Minic.Parser.parse_string ~file:name src)
  in
  if fault then Openarc_core.Faults.strip_parallelism_clauses prog else prog

let load ?obs ?name ~fault file =
  Openarc_core.Compiler.compile_program ~opts:(opts_of_fault fault) ?obs
    (parse ?obs ?name ~fault file)

let write_file path contents =
  let oc = open_out path in
  output_string oc contents;
  close_out oc

let write_json path v = write_file path (Obs.Pjson.to_string v)

(* The Chrome trace of a run over its whole device set (see
   [Obs.Chrome.of_run]), with the host lane and allocation lanes its
   observers recorded. *)
let chrome_of_run (obs : Accrt.Interp.observers) (o : Accrt.Interp.outcome) =
  Obs.Chrome.of_run ~trace:obs.trace ~ledger:obs.ledger
    (Array.map
       (fun d -> d.Gpusim.Device.timeline)
       o.Accrt.Interp.devset.Gpusim.Device_set.devices)

(* The observers a Chrome trace written to [path] needs: on a device set,
   a span trace for the host lane ([trace], else a fresh one) and a ledger
   for each member's allocated-bytes lane; a one-device trace reads the
   timelines alone. *)
let chrome_observers ?trace (c : Accrt.Interp.config) path =
  if c.devices > 1 && path <> None then
    { Accrt.Interp.trace =
        Some (Option.value trace ~default:(Obs.Trace.create ()));
      ledger =
        Some
          (Obs.Ledger.create ~devices:c.devices
             ~schedule:(Gpusim.Device_set.schedule_name c.schedule));
      audit = None }
  else { Accrt.Interp.detached with trace }

(* Exit codes: 0 success, 1 runtime/simulation failure (or lint findings),
   2 malformed input (lexical/syntax/type errors, invalid OpenACC). *)
let handle_code f =
  try f () with
  | (Minic.Loc.Error _ | Acc.Validate.Invalid _) as e ->
      Fmt.epr "%s@." (Printexc.to_string e);
      2
  | Sys_error msg | Failure msg ->
      (* unreadable FILE, unknown benchmark name, ... *)
      Fmt.epr "openarc: %s@." msg;
      2
  | Accrt.Value.Runtime_error _ as e ->
      Fmt.epr "%s@." (Printexc.to_string e);
      1
  | Gpusim.Device.Device_error msg ->
      Fmt.epr "openarc: device error: %s@." msg;
      1
  (* Device faults carry distinct diagnostic codes: ACC-FAULT-001 is a
     fault the active resilience policy could not mask; ACC-FAULT-002 is a
     raw fault with no recovery policy armed. *)
  | Accrt.Resilience.Unrecovered f ->
      Fmt.epr "openarc: [ACC-FAULT-001] unrecovered device fault: %s on \
               '%s' during %s@."
        (Gpusim.Fault_plan.kind_name f.Gpusim.Device.f_kind)
        f.Gpusim.Device.f_target f.Gpusim.Device.f_op;
      1
  | Gpusim.Device.Device_fault f ->
      Fmt.epr "openarc: [ACC-FAULT-002] device fault: %s on '%s' during \
               %s (no resilience policy; rerun with --resilience)@."
        (Gpusim.Fault_plan.kind_name f.Gpusim.Device.f_kind)
        f.Gpusim.Device.f_target f.Gpusim.Device.f_op;
      1

(* Malformed --device-faults / --resilience specs exit 2 (the [Failure]
   branch above) like any other malformed input. *)
let plan_of_spec ~seed = function
  | None -> None
  | Some spec -> (
      match Gpusim.Fault_plan.of_spec ~seed spec with
      | Ok p -> Some p
      | Error e -> Fmt.failwith "invalid --device-faults spec: %s" e)

let policy_of_name name =
  match Accrt.Resilience.of_string name with
  | Ok p -> p
  | Error e -> Fmt.failwith "invalid --resilience policy: %s" e

let seed_arg =
  Arg.(value & opt int 42
       & info [ "seed" ] ~docv:"N"
           ~doc:"Deterministic seed for device jitter and fault injection \
                 (the same seed reproduces a faulty run exactly)")

let devices_arg =
  Arg.(value & opt int 1
       & info [ "devices" ] ~docv:"N"
           ~doc:"Size of the simulated device set (default 1: the single \
                 standalone device). With N > 1 the runtime broadcasts \
                 uploads, shards parallel kernels across members, and \
                 fails a lost member's shards over to the survivors")

let schedule_arg =
  let sched_conv =
    Arg.enum
      [ ("block", Gpusim.Device_set.Block);
        ("cyclic", Gpusim.Device_set.Cyclic) ]
  in
  Arg.(value & opt sched_conv Gpusim.Device_set.Block
       & info [ "schedule" ] ~docv:"SCHED"
           ~doc:"How parallel-loop iteration spaces split across the \
                 device set: 'block' (contiguous chunks, default) or \
                 'cyclic' (round-robin)")

(* A fault rule aimed at device ordinal d needs at least d+1 devices;
   out-of-range ids are malformed input (exit 2), not silent no-ops. *)
let check_devices ~devices plan =
  if devices < 1 then
    Fmt.failwith "invalid --devices: %d (must be >= 1)" devices;
  match plan with
  | None -> ()
  | Some p -> (
      match Gpusim.Fault_plan.max_dev p with
      | Some d when d >= devices ->
          Fmt.failwith
            "invalid --device-faults spec: rule targets device %d but only \
             %d device(s) are configured (need --devices >= %d)"
            d devices (d + 1)
      | _ -> ())

let check_max_iterations n =
  if n < 1 then Fmt.failwith "invalid --max-iterations: %d (must be >= 1)" n

let engine_arg =
  let engine_conv =
    Arg.enum
      [ ("tree", Accrt.Engine.Tree); ("compiled", Accrt.Engine.Compiled) ]
  in
  Arg.(value & opt engine_conv Accrt.Engine.Compiled
       & info [ "engine" ] ~docv:"ENGINE"
           ~doc:"Execution engine: 'compiled' (the default) runs \
                 closure-compiled code over slot-resolved register frames; \
                 'tree' walks the AST (observably identical, several times \
                 slower in wall-clock)")

(* --seed, --devices and --schedule: the device set a run simulates. *)
let device_set_term =
  let make seed devices schedule =
    { Accrt.Interp.default with seed; devices; schedule }
  in
  Term.(const make $ seed_arg $ devices_arg $ schedule_arg)

let fine_arg =
  Arg.(value & flag
       & info [ "fine-grained" ]
           ~doc:"Track coherence per element range instead of per whole \
                 array (the granularity alternative of the paper's \
                 SIII-B discussion)")

let device_faults_arg =
  Arg.(value
       & opt (some string) None
       & info [ "device-faults" ] ~docv:"SPEC"
           ~doc:"Inject device faults: comma-separated \
                 KIND[:TARGET][@PROB][xCOUNT] rules with KIND in bitflip, \
                 xfer-fail, xfer-partial, xfer-corrupt, launch-fail, \
                 launch-timeout, oom, device-lost; an optional #DEV suffix \
                 pins a rule to one device-set member (e.g. \
                 'bitflip:a@0.5x3,device-lost#1')")

let resilience_arg =
  Arg.(value & opt string "none"
       & info [ "resilience" ] ~docv:"POLICY"
           ~doc:"Recovery policy for injected faults: none (propagate), \
                 retry (bounded retry + checksum re-transfer + verified \
                 re-execution), or full (retry plus CPU fallback)")

(* [device_set_term] plus --fine-grained, --device-faults and
   --resilience.  The command's handler calls the result, so a malformed
   value exits 2 through [handle_code]: the fault spec is parsed with the
   run's seed and its device ordinals checked against the set, then the
   policy name. *)
let faults_term =
  let make fine spec policy (c : Accrt.Interp.config) () =
    let plan = plan_of_spec ~seed:c.seed spec in
    check_devices ~devices:c.devices plan;
    { c with
      granularity =
        (if fine then Accrt.Coherence.Fine else Accrt.Coherence.Coarse);
      plan;
      resilience = policy_of_name policy }
  in
  Term.(const make $ fine_arg $ device_faults_arg $ resilience_arg
        $ device_set_term)

let handle f = handle_code (fun () -> f (); 0)

(* ----------------------------- compile ----------------------------- *)

let compile_cmd =
  let emit_cuda =
    Arg.(value & flag
         & info [ "emit-cuda" ] ~doc:"Print the CUDA-style translation")
  in
  let instrument =
    Arg.(value & flag
         & info [ "instrument" ]
             ~doc:"Insert the coherence runtime checks before printing")
  in
  let run file fault emit_cuda instrument =
    handle (fun () ->
        let tp = load ~fault file in
        let tp =
          if instrument then Codegen.Checkgen.instrument tp else tp
        in
        if emit_cuda || instrument then
          Fmt.pr "%a@." Codegen.Cuda.pp tp
        else begin
          Fmt.pr "translated %d kernel(s):@."
            (Array.length tp.Codegen.Tprog.kernels);
          Array.iter
            (fun k ->
              Fmt.pr "  %-20s arrays(read=%s write=%s) %s%s@."
                k.Codegen.Tprog.k_name
                (Analysis.Varset.to_string k.Codegen.Tprog.k_arrays_read)
                (Analysis.Varset.to_string k.Codegen.Tprog.k_arrays_written)
                (if k.Codegen.Tprog.k_has_private_data then "[private] "
                 else "")
                (if k.Codegen.Tprog.k_has_reduction then "[reduction]" else ""))
            tp.Codegen.Tprog.kernels
        end)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Translate an OpenACC program")
    Term.(const run $ file_arg $ fault_arg $ emit_cuda $ instrument)

(* ------------------------------- run ------------------------------- *)

let run_cmd =
  let instrument =
    Arg.(value & flag
         & info [ "instrument" ]
             ~doc:"Profile with the coherence runtime and print the \
                   missing/incorrect/redundant-transfer reports (§III-B)")
  in
  let trace =
    Arg.(value
         & opt (some string) None
         & info [ "trace"; "trace-json" ] ~docv:"FILE"
             ~doc:"Write a Chrome-trace JSON timeline of the simulated \
                   execution (open in chrome://tracing or Perfetto); with \
                   --devices N the file has one lane per member plus a \
                   host lane")
  in
  let faults_json =
    Arg.(value
         & opt (some string) None
         & info [ "faults-json" ] ~docv:"FILE"
             ~doc:"Write the fault/recovery report as JSON to FILE")
  in
  let run file fault instrument trace config engine faults_json =
    handle (fun () ->
        let config =
          { (config ()) with Accrt.Interp.engine; timeline = trace <> None }
        in
        let tp = load ~fault file in
        let tp =
          if instrument then Codegen.Checkgen.instrument tp else tp
        in
        let obs = chrome_observers config trace in
        let o = Accrt.Interp.exec config obs tp in
        (match trace with
        | Some path ->
            let doc = chrome_of_run obs o in
            write_json path doc;
            Fmt.pr "timeline (%d events) written to %s@."
              (List.length (Obs.Pjson.arr_exn doc))
              path
        | None -> ());
        Fmt.pr "%a@." Gpusim.Metrics.pp (Accrt.Interp.metrics o);
        let seed = config.seed and policy = config.resilience in
        (if config.plan <> None || Accrt.Resilience.recovers policy then
           let plan =
             Option.value config.plan ~default:(Gpusim.Fault_plan.none ())
           in
           Fmt.pr "@.%a@."
             (Accrt.Resilience.pp_report ~seed ~plan ~policy
                ~metrics:(Accrt.Interp.metrics o))
             o.Accrt.Interp.resilience;
           match faults_json with
           | Some path ->
               write_file path
                 (Accrt.Resilience.report_json ~seed ~plan ~policy
                    ~metrics:(Accrt.Interp.metrics o)
                    o.Accrt.Interp.resilience);
               Fmt.pr "fault report written to %s@." path
           | None -> ());
        if instrument then begin
          let reports = Accrt.Interp.reports o in
          Fmt.pr "@.%d report(s), grouped:@." (List.length reports);
          List.iter (Fmt.pr "  %s@.") (Accrt.Coherence.summarize reports);
          Fmt.pr "@.suggestions:@.";
          List.iter
            (fun s -> Fmt.pr "  %a@." Openarc_core.Suggest.pp s)
            (Openarc_core.Suggest.analyze o)
        end)
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program on the simulated accelerator")
    Term.(const run $ file_arg $ fault_arg $ instrument $ trace
          $ faults_term $ engine_arg $ faults_json)

(* ------------------------------ profile ---------------------------- *)

let category_names =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

(* The audit log must replay, from the all-fresh initial state, to exactly
   the final per-copy statuses the runtime reports. *)
let audit_replays audit (o : Accrt.Interp.outcome) =
  List.for_all
    (fun ((var, dev), st) ->
      Accrt.Coherence.get o.Accrt.Interp.coherence var dev = st)
    (Obs.Audit.final_states audit)

let profile_cmd =
  let instrument =
    Arg.(value & flag
         & info [ "instrument" ]
             ~doc:"Profile with the coherence runtime enabled (populates \
                   the audit log and the Check-Overhead category)")
  in
  let json =
    Arg.(value
         & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the per-directive cost report as canonical JSON")
  in
  let flame =
    Arg.(value
         & opt (some string) None
         & info [ "flame" ] ~docv:"FILE"
             ~doc:"Write a folded-stack flamegraph (flamegraph.pl / \
                   speedscope input)")
  in
  let events =
    Arg.(value
         & opt (some string) None
         & info [ "events" ] ~docv:"FILE"
             ~doc:"Write the raw span/charge/audit event stream as JSONL \
                   (schema openarc.obs v1)")
  in
  let trace =
    Arg.(value
         & opt (some string) None
         & info [ "trace"; "trace-json" ] ~docv:"FILE"
             ~doc:"Write a Chrome-trace JSON timeline of the device \
                   events; with --devices N the file has one lane per \
                   member plus a host lane of directive spans")
  in
  let run file fault instrument config json flame events trace =
    handle_code (fun () ->
        let config = { (config ()) with Accrt.Interp.timeline = true } in
        let seed = config.seed in
        let tr = Obs.Trace.create () in
        let audit = Obs.Audit.create () in
        let session =
          Obs.Trace.start_span tr Obs.Trace.Session ("profile " ^ file) ()
        in
        let tp = load ~obs:tr ~fault file in
        let tp =
          if instrument then Codegen.Checkgen.instrument tp else tp
        in
        let obs =
          { (chrome_observers ~trace:tr config trace) with
            audit = Some audit }
        in
        let o = Accrt.Interp.exec config obs tp in
        Obs.Trace.end_span tr session;
        let metrics = Accrt.Interp.metrics o in
        let p = Obs.Profile.of_trace ~categories:category_names tr in
        Fmt.pr "per-directive cost breakdown for %s (seed %d):@.@." file seed;
        Fmt.pr "%a@." Obs.Profile.pp p;
        let total = Gpusim.Metrics.total_time metrics in
        let conserved = Obs.Profile.conserves p ~total in
        Fmt.pr "conservation: %s (profiled %.9f s, metrics %.9f s)@."
          (if conserved then "exact" else "FAILED")
          p.Obs.Profile.p_total total;
        let replayed = audit_replays audit o in
        Fmt.pr "audit: %d coherence transition(s), replay %s@."
          (Obs.Audit.length audit)
          (if replayed then "consistent" else "INCONSISTENT");
        (match json with
        | Some path ->
            write_file path (Obs.Profile.to_json ~name:file ~seed p);
            Fmt.pr "profile written to %s@." path
        | None -> ());
        (match flame with
        | Some path ->
            write_file path (Obs.Profile.folded tr);
            Fmt.pr "flamegraph stacks written to %s@." path
        | None -> ());
        (match events with
        | Some path ->
            write_file path (Obs.Trace.to_jsonl tr ^ Obs.Audit.to_jsonl audit);
            Fmt.pr "event stream written to %s@." path
        | None -> ());
        (match trace with
        | Some path ->
            write_json path (chrome_of_run obs o);
            Fmt.pr "timeline written to %s@." path
        | None -> ());
        if conserved && replayed then 0 else 1)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Profile a program: span-based trace, per-directive cost \
             attribution (the paper's Figure 3/4 breakdown), coherence \
             audit log, and flamegraph export")
    Term.(const run $ file_arg $ fault_arg $ instrument $ faults_term
          $ json $ flame $ events $ trace)

(* ------------------------------ analyze ---------------------------- *)

let analyze_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the analysis as canonical JSON (schema \
                   openarc.obs.imbalance, version 1) instead of the text \
                   report")
  in
  let out =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON analysis to FILE (implies --json \
                   formatting for the file; the text report still prints)")
  in
  let run file fault (config : Accrt.Interp.config) engine json out =
    handle_code (fun () ->
        (* The analyzer compares schedules across a device set; a single
           device has nothing to rebalance. *)
        if config.devices < 2 then
          Fmt.failwith
            "invalid --devices: %d (analyze needs a device set; use \
             --devices >= 2)"
            config.devices;
        let seed = config.seed in
        let tp = load ~fault file in
        let o =
          Accrt.Interp.exec { config with engine } Accrt.Interp.detached tp
        in
        match o.Accrt.Interp.imbalance with
        | None -> Fmt.failwith "no shard log recorded (internal error)"
        | Some il ->
            let a = Obs.Imbalance.analyze il in
            let doc = Obs.Imbalance.json ~name:file ~seed a in
            if json then print_string (Obs.Pjson.to_string doc)
            else Fmt.pr "%a" Obs.Imbalance.pp a;
            (match out with
            | Some path ->
                write_json path doc;
                if not json then Fmt.pr "analysis written to %s@." path
            | None -> ());
            0)
  in
  Cmd.v
    (Cmd.info "analyze"
       ~doc:"Run a program across a simulated device set and report \
             shard-level cost imbalance per kernel — spread, \
             idle-at-barrier, merge overhead — plus a block/cyclic \
             schedule verdict from re-costing the recorded \
             iteration-space weights under the alternative split")
    Term.(const run $ file_arg $ fault_arg $ device_set_term $ engine_arg
          $ json $ out)

(* ----------------------------- memtrace ---------------------------- *)

let memtrace_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the ledger analysis as canonical JSON (schema \
                   openarc.obs.memtrace, version 1) instead of the text \
                   report")
  in
  let out =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"Write the JSON analysis to FILE (implies --json \
                   formatting for the file; the text report still prints)")
  in
  let run file fault (config : Accrt.Interp.config) engine json out =
    handle_code (fun () ->
        check_devices ~devices:config.devices None;
        let config = { config with engine } and seed = config.seed in
        (* The redundancy attribution reads the §III-B coherence lattice,
           so the program runs instrumented. *)
        let tp = Codegen.Checkgen.instrument (load ~fault file) in
        let lg =
          Obs.Ledger.create ~devices:config.devices
            ~schedule:(Gpusim.Device_set.schedule_name config.schedule)
        in
        let o =
          Accrt.Interp.exec config
            { Accrt.Interp.detached with ledger = Some lg }
            tp
        in
        let cm = o.Accrt.Interp.device.Gpusim.Device.cm in
        let a =
          Obs.Ledger.analyze lg
            ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
            ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth
        in
        if json then print_string (Obs.Ledger.to_json ~name:file ~seed a)
        else Fmt.pr "%a" Obs.Ledger.pp a;
        (match out with
        | Some path ->
            write_file path (Obs.Ledger.to_json ~name:file ~seed a);
            if not json then Fmt.pr "ledger written to %s@." path
        | None -> ());
        0)
  in
  Cmd.v
    (Cmd.info "memtrace"
       ~doc:"Run a program with the data-movement ledger attached and \
             report per-array transfer attribution (typed causes, device \
             ordinals, source directives), live allocation watermarks, \
             and counterfactual hoist/present/merge savings re-costed \
             under the gpusim transfer model")
    Term.(const run $ file_arg $ fault_arg $ device_set_term $ engine_arg
          $ json $ out)

(* ----------------------------- saturate ---------------------------- *)

let saturate_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the search report as canonical JSON (schema \
                   openarc.obs.saturate, version 1) instead of the text \
                   report")
  in
  let apply =
    Arg.(value & flag
         & info [ "apply" ]
             ~doc:"Emit the patched program (accepted rewrites applied): \
                   to --out FILE when given, else to stdout (the report \
                   then goes to stderr)")
  in
  let out =
    Arg.(value
         & opt (some string) None
         & info [ "out" ] ~docv:"FILE"
             ~doc:"With --apply, write the patched program to FILE \
                   instead of stdout")
  in
  let max_steps =
    Arg.(value & opt int 16
         & info [ "max-steps" ] ~docv:"N"
             ~doc:"Candidate-attempt budget of the greedy search \
                   (accepted or rejected; default 16)")
  in
  let run file seed devices json apply out max_steps =
    handle_code (fun () ->
        check_devices ~devices None;
        if max_steps < 1 then
          Fmt.failwith "invalid --max-steps: %d (must be >= 1)" max_steps;
        (* Both the JSON report and the patched source default to stdout;
           writing both there would interleave two documents. *)
        if json && apply && out = None then
          Fmt.failwith
            "--json and --apply both print to stdout; pass --out FILE for \
             the patched program";
        let tp = load ~fault:false file in
        (* Designated outputs: the benchmark's declared ones, else every
           array a kernel writes (the host-visible footprint). *)
        let outputs =
          match bench_of_path file with
          | Some (b, _) -> b.Suite.Bench_def.outputs
          | None ->
              Array.fold_left
                (fun acc k ->
                  Analysis.Varset.union acc
                    k.Codegen.Tprog.k_arrays_written)
                Analysis.Varset.empty tp.Codegen.Tprog.kernels
              |> Analysis.Varset.elements
        in
        (* [--devices N] caps the validated device-set sizes (always
           including N itself, so a 8-device user validates at 8). *)
        let check_devices_list =
          List.sort_uniq compare
            (devices :: List.filter (fun d -> d < devices) [ 1; 2; 4 ])
        in
        let config =
          { Saturate.seed; max_steps; check_devices = check_devices_list }
        in
        let r =
          Saturate.run ~config ~name:file ~outputs tp.Codegen.Tprog.source
        in
        let report ppf =
          if json then Fmt.pf ppf "%s" (Saturate.to_json r)
          else Fmt.pf ppf "%a" Saturate.pp r
        in
        (match (apply, out) with
        | false, _ -> report Fmt.stdout
        | true, Some path ->
            report Fmt.stdout;
            write_file path (Minic.Pretty.program_to_string r.Saturate.r_program);
            if not json then Fmt.pr "patched program written to %s@." path
        | true, None ->
            (* Patched source is the stdout payload; report to stderr. *)
            report Fmt.stderr;
            print_string
              (Minic.Pretty.program_to_string r.Saturate.r_program));
        0)
  in
  Cmd.v
    (Cmd.info "saturate"
       ~doc:"Search-based automatic directive optimization: rank the \
             data-movement ledger's hoist/present/merge verdicts (plus \
             structural kernel fusion), greedily apply the top rewrite, \
             validate it via the symbolic tier, kernel verification, \
             bit-identical outputs under both engines and 1/2/4-device \
             sets, and a measured diff-profile confirmation, then repeat \
             until no material candidate remains")
    Term.(const run $ file_arg $ seed_arg $ devices_arg $ json $ apply $ out
          $ max_steps)

(* ------------------------------ verify ----------------------------- *)

let verify_cmd =
  let options =
    Arg.(value
         & opt (some string) None
         & info [ "options" ]
             ~docv:"SPEC"
             ~doc:"OpenARC-style verification options, e.g. \
                   'complement=0,kernels=main_kernel0' or \
                   'errorMargin=1e-6,minValueToCheck=1e-32'")
  in
  let show_transformed =
    Arg.(value
         & opt (some string) None
         & info [ "show-transformed" ]
             ~docv:"KERNEL"
             ~doc:"Print the memory-transfer-demoted source for KERNEL \
                   (the paper's Listing 2) instead of verifying")
  in
  let trace =
    Arg.(value
         & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a Chrome-trace JSON timeline of the verification \
                   run's device events")
  in
  let events =
    Arg.(value
         & opt (some string) None
         & info [ "events" ] ~docv:"FILE"
             ~doc:"Write the verification span/charge stream as JSONL \
                   (schema openarc.obs v1)")
  in
  let symbolic =
    Arg.(value & flag
         & info [ "symbolic" ]
             ~doc:"Run the tier-0 symbolic equivalence check first: \
                   kernels proved equivalent over the affine fragment \
                   skip the numeric comparison run; the rest fall back \
                   to it")
  in
  let symeq_json =
    Arg.(value
         & opt (some string) None
         & info [ "symeq-json" ] ~docv:"FILE"
             ~doc:"Write the symbolic verdicts as canonical JSON \
                   (schema openarc.obs.symeq v1); implies $(b,--symbolic)")
  in
  let run file fault options show_transformed trace events symbolic
      symeq_json =
    handle (fun () ->
        let obs =
          if events <> None then Some (Obs.Trace.create ()) else None
        in
        let tp = load ?obs ~fault file in
        match show_transformed with
        | Some kname -> Fmt.pr "%s@." (Openarc_core.Demotion.to_string tp kname)
        | None ->
            let config =
              match options with
              | Some s -> Openarc_core.Vconfig.of_string s
              | None ->
                  (* fall back to the OPENARC_VERIFICATION environment
                     variable, as OpenARC does *)
                  Openarc_core.Vconfig.from_env ()
            in
            let symbolic = symbolic || symeq_json <> None in
            let v =
              Openarc_core.Kernel_verify.verify_tprog ~config ?obs
                ~trace:(trace <> None) ~symbolic tp
            in
            (match v.Openarc_core.Kernel_verify.symeq with
            | Some result ->
                Fmt.pr "%a@.@." Symeq.Report.pp
                  { Symeq.Report.program = file; result };
                (match symeq_json with
                | Some path ->
                    write_file path
                      (Symeq.Report.to_json
                         { Symeq.Report.program = file; result });
                    Fmt.pr "symbolic verdicts written to %s@." path
                | None -> ())
            | None -> ());
            List.iter
              (fun r -> Fmt.pr "%a@." Openarc_core.Kernel_verify.pp_report r)
              v.Openarc_core.Kernel_verify.reports;
            let bad =
              List.length (Openarc_core.Kernel_verify.detected_errors v)
            in
            Fmt.pr "@.%d kernel(s) with detected errors@." bad;
            (match trace with
            | Some path ->
                write_json path
                  (Obs.Chrome.of_timeline
                     v.Openarc_core.Kernel_verify.timeline);
                Fmt.pr "timeline written to %s@." path
            | None -> ());
            (match (events, obs) with
            | Some path, Some tr ->
                write_file path (Obs.Trace.to_jsonl tr);
                Fmt.pr "event stream written to %s@." path
            | _ -> ()))
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify translated kernels against the sequential reference")
    Term.(const run $ file_arg $ fault_arg $ options $ show_transformed
          $ trace $ events $ symbolic $ symeq_json)

(* ----------------------------- optimize ---------------------------- *)

let optimize_cmd =
  let outputs =
    Arg.(required
         & opt (some string) None
         & info [ "outputs" ] ~docv:"VARS"
             ~doc:"Comma-separated host variables that define observable \
                   correctness")
  in
  let max_iterations =
    Arg.(value & opt int 12 & info [ "max-iterations" ] ~docv:"N" ~doc:"Cap")
  in
  let conservative =
    Arg.(value & flag
         & info [ "conservative" ]
             ~doc:"Apply only suggestions backed by certain evidence \
                   (skip may-dead-based ones)")
  in
  let show_final =
    Arg.(value & flag
         & info [ "show-final" ] ~doc:"Print the optimized program")
  in
  let run file outputs max_iterations conservative show_final =
    handle (fun () ->
        check_max_iterations max_iterations;
        let prog = parse ~fault:false file in
        let outputs = String.split_on_char ',' outputs in
        let policy =
          if conservative then Openarc_core.Session.Conservative
          else Openarc_core.Session.Follow_all
        in
        let r =
          Openarc_core.Session.optimize ~policy ~max_iterations ~outputs
            prog
        in
        List.iter (fun l -> Fmt.pr "%s@." l)
          (Openarc_core.Session.log_lines r);
        Fmt.pr "@.%d iteration(s), %d incorrect, converged: %b@."
          r.Openarc_core.Session.iterations
          r.Openarc_core.Session.incorrect_iterations
          r.Openarc_core.Session.converged;
        let n0, b0 = Openarc_core.Session.transfer_stats prog in
        let n1, b1 =
          Openarc_core.Session.transfer_stats r.Openarc_core.Session.final
        in
        Fmt.pr "transfers: %d (%d bytes) -> %d (%d bytes)@." n0 b0 n1 b1;
        if show_final then
          Fmt.pr "@.%s@."
            (Minic.Pretty.program_to_string r.Openarc_core.Session.final))
  in
  Cmd.v
    (Cmd.info "optimize"
       ~doc:"Run the interactive memory-transfer optimization loop")
    Term.(const run $ file_arg $ outputs $ max_iterations $ conservative
          $ show_final)

(* ------------------------------ session ---------------------------- *)

let session_cmd =
  let outputs =
    Arg.(required
         & opt (some string) None
         & info [ "outputs" ] ~docv:"VARS"
             ~doc:"Comma-separated host variables that define observable \
                   correctness")
  in
  let max_iterations =
    Arg.(value & opt int 12 & info [ "max-iterations" ] ~docv:"N" ~doc:"Cap")
  in
  let conservative =
    Arg.(value & flag
         & info [ "conservative" ]
             ~doc:"Apply only suggestions backed by certain evidence")
  in
  let report =
    Arg.(value & flag
         & info [ "report" ]
             ~doc:"Print the full iteration-by-iteration narrative with \
                   inter-iteration profile diffs")
  in
  let json =
    Arg.(value
         & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the session telemetry (per-iteration records, \
                   embedded profiles, profile deltas) as canonical JSON")
  in
  let run file outputs max_iterations conservative devices schedule report
      json =
    handle (fun () ->
        check_devices ~devices None;
        check_max_iterations max_iterations;
        let prog = parse ~fault:false file in
        let outputs = String.split_on_char ',' outputs in
        let policy =
          if conservative then Openarc_core.Session.Conservative
          else Openarc_core.Session.Follow_all
        in
        let r =
          Openarc_core.Session.optimize ~policy ~max_iterations ~devices
            ~schedule ~outputs prog
        in
        if report then
          Fmt.pr "%s" (Openarc_core.Session.report ~name:file r)
        else begin
          List.iter
            (fun (it : Openarc_core.Session.iteration) ->
              Fmt.pr "iteration %d: outputs %s, %d transfer(s), %d \
                      byte(s)%s@."
                it.Openarc_core.Session.it_index
                (if it.Openarc_core.Session.it_outputs_ok then "ok"
                 else "DIVERGED")
                it.Openarc_core.Session.it_transfers
                it.Openarc_core.Session.it_bytes
                (if it.Openarc_core.Session.it_note = "" then ""
                 else "; " ^ it.Openarc_core.Session.it_note))
            r.Openarc_core.Session.telemetry;
          Fmt.pr "%d iteration(s), %d incorrect, converged: %b@."
            r.Openarc_core.Session.iterations
            r.Openarc_core.Session.incorrect_iterations
            r.Openarc_core.Session.converged
        end;
        match json with
        | Some path ->
            write_file path (Openarc_core.Session.to_json ~name:file r);
            Fmt.pr "session telemetry written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "session"
       ~doc:"Run the interactive optimization loop with structured \
             per-iteration telemetry: profile snapshots, coherence report \
             counts, applied suggestions, verification outcomes, and \
             inter-iteration profile diffs")
    Term.(const run $ file_arg $ outputs $ max_iterations $ conservative
          $ devices_arg $ schedule_arg $ report $ json)

(* ---------------------------- diff-profile -------------------------- *)

let diff_profile_cmd =
  let before_arg =
    Arg.(required
         & pos 0 (some string) None
         & info [] ~docv:"BEFORE"
             ~doc:"Baseline profile (canonical 'openarc profile --json' \
                   document)")
  in
  let after_arg =
    Arg.(required
         & pos 1 (some string) None
         & info [] ~docv:"AFTER" ~doc:"Profile to compare against BEFORE")
  in
  let json =
    Arg.(value
         & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the diff as canonical JSON (schema \
                   openarc.obs.profile-diff)")
  in
  let read_profile path =
    let ic = open_in_bin path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    match Obs.Diff.profile_of_json s with
    | Ok (p, name, _seed) -> (p, if name = "" then path else name)
    | Error e -> Fmt.failwith "%s: not a canonical profile (%s)" path e
  in
  let run before after json =
    handle (fun () ->
        let pb, nb = read_profile before in
        let pa, na = read_profile after in
        let d =
          Obs.Diff.diff ~before_name:nb ~after_name:na ~before:pb ~after:pa
            ()
        in
        Fmt.pr "%a" Obs.Diff.pp d;
        match json with
        | Some path ->
            write_file path (Obs.Diff.to_json d);
            Fmt.pr "diff written to %s@." path
        | None -> ())
  in
  Cmd.v
    (Cmd.info "diff-profile"
       ~doc:"Compare two per-directive cost profiles: per-directive, \
             per-category deltas with improved/regressed/appeared/vanished \
             attribution")
    Term.(const run $ before_arg $ after_arg $ json)

(* ------------------------------- lint ------------------------------ *)

let lint_cmd =
  let json =
    Arg.(value & flag
         & info [ "json" ] ~doc:"Emit diagnostics as a JSON array")
  in
  let severity =
    Arg.(value
         & opt
             (enum
                [ ("error", Lint.Diag.Error);
                  ("warning", Lint.Diag.Warning);
                  ("info", Lint.Diag.Info) ])
             Lint.Diag.Warning
         & info [ "severity" ] ~docv:"LEVEL"
             ~doc:"Lowest severity to display: error, warning (default) \
                   or info")
  in
  let deny_warnings =
    Arg.(value & flag
         & info [ "deny-warnings" ]
             ~doc:"Exit non-zero when warnings remain (CI gating)")
  in
  let run file fault json severity deny_warnings =
    handle_code (fun () ->
        let ds = Lint.run_tprog (load ~name:file ~fault file) in
        let shown = Lint.Diag.filter ~threshold:severity ds in
        if json then Fmt.pr "%s" (Lint.Diag.to_json shown)
        else begin
          Fmt.pr "%s" (Lint.Diag.to_text shown);
          let count s =
            List.length
              (List.filter (fun d -> d.Lint.Diag.severity = s) ds)
          in
          Fmt.pr "%d error(s), %d warning(s), %d info(s)@."
            (count Lint.Diag.Error) (count Lint.Diag.Warning)
            (count Lint.Diag.Info)
        end;
        let fail_threshold =
          if deny_warnings then Lint.Diag.Warning else Lint.Diag.Error
        in
        if
          List.exists
            (fun d -> Lint.Diag.at_least fail_threshold d.Lint.Diag.severity)
            ds
        then 1
        else 0)
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically check directives: data races requiring \
             private/reduction clauses, cross-iteration array conflicts, \
             and missing/redundant memory transfers — before any execution")
    Term.(const run $ file_arg $ fault_arg $ json $ severity $ deny_warnings)

(* --------------------------- fault-matrix -------------------------- *)

let fault_matrix_cmd =
  let benches =
    Arg.(value
         & opt (some string) None
         & info [ "benches" ] ~docv:"NAMES"
             ~doc:"Comma-separated benchmark names (default: the whole \
                   suite)")
  in
  let kinds =
    Arg.(value
         & opt (some string) None
         & info [ "kinds" ] ~docv:"KINDS"
             ~doc:"Comma-separated fault kinds to sweep (default: all)")
  in
  let json =
    Arg.(value
         & opt (some string) None
         & info [ "json" ] ~docv:"FILE"
             ~doc:"Write the matrix as JSON to FILE")
  in
  let split s =
    String.split_on_char ',' s |> List.map String.trim
    |> List.filter (fun x -> x <> "")
  in
  let trace =
    Arg.(value
         & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write a merged Chrome trace of every cell's device \
                   timeline (one process per bench/fault/policy cell)")
  in
  let devices =
    Arg.(value
         & opt (some string) None
         & info [ "devices" ] ~docv:"COUNTS"
             ~doc:"Comma-separated device-set sizes (each > 1, e.g. '2,4') \
                   to additionally sweep device-loss-with-failover rows \
                   on: one member is killed at a kernel-launch gate and \
                   its shard must fail over to the survivors")
  in
  let run benches kinds seed devices json trace =
    handle_code (fun () ->
        let subjects =
          (match benches with
          | None -> Suite.Registry.all
          | Some s ->
              List.map
                (fun n ->
                  match Suite.Registry.find n with
                  | Some b -> b
                  | None -> Fmt.failwith "unknown benchmark '%s'" n)
                (split s))
          |> List.map (fun (b : Suite.Bench_def.t) ->
                 { Openarc_core.Fault_matrix.s_name = b.Suite.Bench_def.name;
                   s_source = b.Suite.Bench_def.source;
                   s_outputs = b.Suite.Bench_def.outputs })
        in
        let kinds =
          Option.map
            (fun s ->
              List.map
                (fun k ->
                  match Gpusim.Fault_plan.kind_of_name k with
                  | Some k -> k
                  | None -> Fmt.failwith "unknown fault kind '%s'" k)
                (split s))
            kinds
        in
        let device_counts =
          match devices with
          | None -> []
          | Some s ->
              List.map
                (fun n ->
                  match int_of_string_opt n with
                  | Some v when v > 1 -> v
                  | _ ->
                      Fmt.failwith
                        "invalid --devices count '%s' (each must be an \
                         integer > 1)"
                        n)
                (split s)
        in
        let m =
          Openarc_core.Fault_matrix.run ~seed ?kinds ~device_counts
            ~trace:(trace <> None) subjects
        in
        Fmt.pr "%a@." Openarc_core.Fault_matrix.pp m;
        (match json with
        | Some path ->
            write_json path (Openarc_core.Fault_matrix.json m);
            Fmt.pr "matrix written to %s@." path
        | None -> ());
        (match trace with
        | Some path ->
            write_json path (Openarc_core.Fault_matrix.trace m);
            Fmt.pr "merged timeline written to %s@." path
        | None -> ());
        if Openarc_core.Fault_matrix.all_ok m then 0 else 1)
  in
  Cmd.v
    (Cmd.info "fault-matrix"
       ~doc:"Sweep fault kinds x recovery policies over the benchmark \
             suite, asserting every combination recovers verified-correct \
             or degrades to CPU fallback")
    Term.(const run $ benches $ kinds $ seed_arg $ devices $ json $ trace)

(* ---------------------------- benchmarks --------------------------- *)

let benchmarks_cmd =
  let run () =
    List.iter
      (fun (b : Suite.Bench_def.t) ->
        Fmt.pr "%-10s %2d kernel(s)  %s@." b.Suite.Bench_def.name
          b.Suite.Bench_def.expected_kernels b.Suite.Bench_def.description)
      Suite.Registry.all;
    0
  in
  Cmd.v
    (Cmd.info "benchmarks" ~doc:"List the bundled OpenACC benchmark suite")
    Term.(const run $ const ())

let () =
  let doc = "OpenARC reproduction: OpenACC debugging and optimization" in
  let info = Cmd.info "openarc" ~version:"1.0.0" ~doc in
  exit
    (* [~term_err:2]: argument-parsing errors (unknown flags, bad
       operands) are malformed input, exit code 2 — not cmdliner's
       default 124. *)
    (Cmd.eval' ~term_err:2
       (Cmd.group info
          [ compile_cmd; run_cmd; profile_cmd; analyze_cmd; memtrace_cmd;
            saturate_cmd; verify_cmd; optimize_cmd; session_cmd;
            diff_profile_cmd; lint_cmd; fault_matrix_cmd; benchmarks_cmd ]))
