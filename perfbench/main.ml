(** The repository benchmark.

    Usage: [main.exe --workload W --seed N --seconds S --trace 0|1]

    Three seeded, closed-loop workloads — one client, one operation in
    flight, no [Domain]s — drive the public entry point of every pipeline
    layer.  Each operation's result is checked against an oracle that does
    not come from the layer under test; a failed oracle or an exception
    counts the operation as failed.  The run prints one line per metric
    (name, value, unit) and ends with one JSON object
    [{"correct", "attempted", "failed", "metrics"}]: the end-to-end
    metrics with [--trace 0], the per-layer metrics with [--trace 1].

    The traced run repeats the untraced run's work with a span recorded
    around every call the benchmark makes into a layer; per-layer self
    time is a span's duration minus its children's, and the tracing
    overhead is the traced wall time minus the untraced one.  README.md
    gives the workload rationale and the layer -> metric -> workload map. *)

let now = Unix.gettimeofday

(* Add [v] to the float under [k]. *)
let add tbl k v =
  Hashtbl.replace tbl k (v +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k))

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

module Spans = struct
  type t = {
    id : int;
    parent : int;  (** -1 for a root *)
    trace : int;  (** operation index; -1 to -3 for the set-ups *)
    name : string;
    start : float;
    mutable stop : float;
  }

  let on = ref false
  let all : t list ref = ref []
  (* trace -> factor from raw to reference-speed seconds *)
  let scale : (int, float) Hashtbl.t = Hashtbl.create 256
  let stack : t list ref = ref []
  let next_id = ref 0
  let trace = ref (-1)

  let record name f =
    if not !on then f ()
    else begin
      let parent = match !stack with p :: _ -> p.id | [] -> -1 in
      let s =
        { id = !next_id; parent; trace = !trace; name; start = now ();
          stop = 0.0 }
      in
      incr next_id;
      stack := s :: !stack;
      Fun.protect f ~finally:(fun () ->
          s.stop <- now ();
          stack := List.tl !stack;
          all := s :: !all)
    end

  let duration s =
    (s.stop -. s.start)
    *. Option.value ~default:1.0 (Hashtbl.find_opt scale s.trace)

  (** Per-name self seconds (duration minus the children it covers) and
      per-name inclusive seconds. *)
  let times () =
    let covered = Hashtbl.create 256 in
    List.iter
      (fun s -> if s.parent >= 0 then add covered s.parent (duration s))
      !all;
    let self = Hashtbl.create 64 and total = Hashtbl.create 64 in
    List.iter
      (fun s ->
        let c = Option.value ~default:0.0 (Hashtbl.find_opt covered s.id) in
        add self s.name (duration s -. c);
        add total s.name (duration s))
      !all;
    (self, total)

  let write path =
    let oc = open_out path in
    List.iter
      (fun s ->
        Printf.fprintf oc
          "{\"id\": %d, \"parent\": %d, \"trace\": %d, \"name\": %S, \
           \"start\": %.9f, \"end\": %.9f, \"scale\": %.9f}\n"
          s.id s.parent s.trace s.name s.start s.stop
          (Option.value ~default:1.0 (Hashtbl.find_opt scale s.trace)))
      (List.rev !all);
    close_out oc
end

let span = Spans.record

let median l =
  let a = Array.of_list l in
  Array.sort compare a;
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* ------------------------------------------------------------------ *)
(* Reference-speed clock                                               *)
(* ------------------------------------------------------------------ *)

(* The machine's cores are shared: the same code runs in a fast state or
   one about 40% slower, and the state changes every few seconds, also in
   the middle of an operation.  Every timed interval is therefore rescaled
   to the speed at which a fixed calibration loop takes [calibration_ref]
   seconds; all reported times are in these reference-speed seconds.  The
   speed is sampled right before and after the interval (fastest of three
   loops each, which drops samples a descheduling inflated) and every
   [sample_period] seconds during it, from a SIGALRM handler (whose 1%
   share of the interval is left in).  The loop allocates, hashes and does
   float arithmetic like the interpreters' inner loops: on [debug-suite]
   it cuts the spread of repeated operations from about 14% to 7%, where
   an allocation-free loop does not help.  A compaction before each
   interval gives every operation the fresh heap a command-line invocation
   starts from. *)
let calibration_ref = 0.001

let calibration_loop () =
  let t0 = now () in
  let h = Hashtbl.create 256 in
  let acc = ref 0.0 in
  for k = 0 to 10_000 do
    let l = List.init 4 (fun j -> float_of_int (j + k)) in
    acc := !acc +. (List.fold_left ( +. ) 0.0 l *. 0.5);
    Hashtbl.replace h (k land 255) (!acc, l)
  done;
  ignore (Sys.opaque_identity h);
  now () -. t0

let calibrate () =
  List.fold_left Float.min infinity (List.init 3 (fun _ -> calibration_loop ()))

let sample_period = 0.1
let samples : float list ref = ref []

let () =
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle (fun _ -> samples := calibration_loop () :: !samples))

let set_timer period =
  ignore
    (Unix.setitimer Unix.ITIMER_REAL
       { Unix.it_interval = period; it_value = period })

(* Run [f] under span trace [trace] while sampling the speed; return its
   result and its duration in reference-speed seconds. *)
let bracketed ~trace f =
  Gc.compact ();
  let c0 = calibrate () in
  Spans.trace := trace;
  samples := [];
  set_timer sample_period;
  let t0 = now () in
  let r = Fun.protect f ~finally:(fun () -> set_timer 0.0) in
  let dt = now () -. t0 in
  let c1 = calibrate () in
  let factor = calibration_ref /. median (c0 :: c1 :: !samples) in
  Hashtbl.replace Spans.scale trace factor;
  (r, dt *. factor)

(* Time [f] inside a span, also when tracing is off: ratio metrics pair
   two calls of one operation. *)
let timed name f =
  let t0 = now () in
  let r = span name f in
  (r, now () -. t0)

(* ------------------------------------------------------------------ *)
(* Layer calls                                                         *)
(* ------------------------------------------------------------------ *)

let parse src = span "minic.parse" (fun () -> Minic.Parser.parse_string src)

(* Validate, type check and translate: the static front end. *)
let front ?opts prog =
  span "acc.validate" (fun () -> Acc.Validate.check_program prog);
  let env = span "minic.typecheck" (fun () -> Minic.Typecheck.check prog) in
  span "codegen.translate" (fun () ->
      Codegen.Translate.translate ?opts env prog)

let instrument tp =
  span "codegen.instrument" (fun () -> Codegen.Checkgen.instrument tp)

let lint ?opts prog = span "lint.run" (fun () -> Lint.run_program ?opts prog)

let reference prog =
  span "runtime.reference" (fun () ->
      (Accrt.Eval.run_reference prog).Accrt.Eval.env)

let verify ?opts prog =
  span "core.verify" (fun () ->
      Openarc_core.Kernel_verify.verify ?opts ~symbolic:true prog)

let symeq ?opts prog =
  span "symeq.check" (fun () -> Symeq.Engine.check_program ?opts prog)

(* ------------------------------------------------------------------ *)
(* Operations                                                          *)
(* ------------------------------------------------------------------ *)

(** What one operation reports: its oracle verdict, deterministic counts
    (summed per pass; every pass must repeat them exactly) and wall-clock
    pairs for the ratio metrics. *)
type result = {
  failure : string option;
  counts : (string * float) list;
  walls : (string * float) list;
}

let ok_if cond why = if cond then None else Some why

let first_failure l = List.find_map Fun.id l

let i = float_of_int

let gpusim_counts (m : Gpusim.Metrics.t) =
  [ ("gpusim.sim_s", Gpusim.Metrics.total_time m);
    ("gpusim.bytes_h2d", i m.bytes_h2d);
    ("gpusim.bytes_d2h", i m.bytes_d2h);
    ("gpusim.transfers", i (m.transfers_h2d + m.transfers_d2h));
    ("gpusim.launches", i m.kernel_launches) ]

let symeq_counts (t : Symeq.Engine.t) =
  [ ("symeq.proved", i t.proved);
    ("symeq.kernels", i (List.length t.kernels)) ]

let matches ~outputs ~reference o =
  Openarc_core.Session.outputs_match ~outputs ~reference o

(** A prepared workload: the canonical bytes of its generated inputs (for
    the determinism self-check), the operations of each pass in seeded
    order, and a whole-pass oracle over the pass's summed counts. *)
type prepared = {
  inputs : string;
  pass : int -> (string * (unit -> result)) list;
  check_pass : (string -> float) -> string option;
}

(* Every pass runs all [items], in an order shuffled by the seed and the
   pass index.  [extra] are further generated inputs to fingerprint. *)
let prepare ?(extra = []) ?(check_pass = fun _ -> None) ~seed ~passes ~label
    ~op items =
  let orders =
    List.init passes (fun p -> Gen.shuffle (Gen.rng ((seed * 1000) + p)) items)
  in
  { inputs =
      String.concat "\n"
        (extra
        @ List.map (fun o -> String.concat " " (List.map label o)) orders);
    pass = (fun p -> List.map (fun it -> (label it, op it)) (List.nth orders p));
    check_pass }

(* ---------------- debug-suite ---------------- *)

type variant = Source | Optimized | Fault

let variant_name = function
  | Source -> "source"
  | Optimized -> "optimized"
  | Fault -> "fault"

(* Table II of the paper: kernel verification of the fault builds detects
   4 active and 0 latent races over the whole suite. *)
let table2_active = 4.0

let debug_op ~seed ~refs ((b : Suite.Bench_def.t), v) () =
  let outputs = b.outputs in
  let fault = v = Fault in
  let opts =
    if fault then Codegen.Options.fault_injection else Codegen.Options.default
  in
  let src = if v = Optimized then b.optimized else b.source in
  let parsed = parse src in
  let prog =
    if fault then Openarc_core.Faults.strip_parallelism_clauses parsed
    else parsed
  in
  let diags = lint ~opts prog in
  let tp = front ~opts prog in
  let itp = instrument tp in
  let plain, w_plain =
    timed "runtime.exec_tree" (fun () ->
        Accrt.Interp.run ~coherence:false ~seed tp)
  in
  let coh, w_coh =
    timed "runtime.exec_coherence" (fun () ->
        Accrt.Interp.run ~coherence:true ~seed itp)
  in
  let sym = symeq ~opts prog in
  let kv = verify ~opts prog in
  let detected =
    List.length (Openarc_core.Kernel_verify.detected_errors kv)
  in
  let m = Accrt.Interp.metrics coh in
  let common =
    [ ("codegen.kernels", i (Array.length tp.Codegen.Tprog.kernels));
      ("lint.diags", i (List.length diags));
      ("minic.parse_bytes", i (String.length src));
      ("core.verify_launches",
       i kv.Openarc_core.Kernel_verify.metrics.Gpusim.Metrics.kernel_launches);
      ("sim_plain", Gpusim.Metrics.total_time (Accrt.Interp.metrics plain)) ]
    @ symeq_counts sym @ gpusim_counts m
  in
  let walls = [ ("plain", w_plain); ("coherence", w_coh) ] in
  match v with
  | Fault ->
      let c =
        span "core.census" (fun () ->
            Openarc_core.Faults.census_of_program parsed)
      in
      let races =
        List.length
          (List.filter
             (fun (d : Lint.Diag.t) ->
               d.code = "ACC-RACE-001" || d.code = "ACC-RACE-002")
             diags)
      in
      { failure =
          first_failure
            [ ok_if
                (c.active_detected = c.active_errors && c.latent_detected = 0)
                "census: undetected active or detected latent race";
              ok_if (detected = c.active_errors)
                "verify: detected kernels differ from the census";
              ok_if
                (races >= b.expected_private + b.expected_reduction)
                "lint: an injected race is not flagged" ];
        counts =
          ("table2.active_detected", i c.active_detected)
          :: ("table2.latent_detected", i c.latent_detected)
          :: common;
        walls }
  | Source | Optimized ->
      let reference = Hashtbl.find refs (b.name, v) in
      let session_failure, session_counts =
        if v = Optimized then (None, [])
        else
          let s =
            span "core.session" (fun () ->
                Openarc_core.Session.optimize ~outputs prog)
          in
          let final = front s.final in
          let o =
            span "runtime.exec_tree" (fun () ->
                Accrt.Interp.run ~coherence:false ~seed final)
          in
          ( ok_if (matches ~outputs ~reference o)
              "session: optimized program changed the outputs",
            [ ("core.session_iterations", i s.iterations) ] )
      in
      { failure =
          first_failure
            [ ok_if (matches ~outputs ~reference plain) "plain run outputs";
              ok_if (matches ~outputs ~reference coh) "coherence run outputs";
              ok_if (detected = 0) "verify: a correct kernel was flagged";
              session_failure ];
        counts = session_counts @ common;
        walls }

let debug_setup ~seed ~passes =
  let items =
    List.concat_map
      (fun b -> [ (b, Source); (b, Optimized); (b, Fault) ])
      Suite.Registry.all
  in
  let refs = Hashtbl.create 32 in
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      List.iter
        (fun (v, src) ->
          Hashtbl.replace refs (b.name, v)
            (reference (Minic.Parser.parse_string src)))
        [ (Source, b.source); (Optimized, b.optimized) ])
    Suite.Registry.all;
  (* Warm-up: one operation on the cheapest program. *)
  ignore (debug_op ~seed ~refs (Suite.Bfs.bench, Source) ());
  prepare ~seed ~passes items
    ~label:(fun ((b : Suite.Bench_def.t), v) -> b.name ^ ":" ^ variant_name v)
    ~op:(debug_op ~seed ~refs)
    ~check_pass:(fun count ->
      ok_if
        (count "table2.active_detected" = table2_active
        && count "table2.latent_detected" = 0.0)
        "Table II: fault builds must give 4 active / 0 latent detections")

(* ---------------- saturate-suite ---------------- *)

let profile_categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

let engine_devices =
  List.concat_map
    (fun d -> [ (Accrt.Engine.Tree, d); (Accrt.Engine.Compiled, d) ])
    [ 1; 2; 4 ]

(* One search, then its validation ladder replayed rung by rung on the
   accepted program from outside the search — the oracle that the result
   reproduces the original outputs, and the per-rung wall attribution. *)
let saturate_op ~seed ~refs (b : Suite.Bench_def.t) () =
  let outputs = b.outputs in
  let reference = Hashtbl.find refs b.name in
  let prog = parse b.source in
  let r =
    span "saturate.run" (fun () ->
        Saturate.run
          ~config:{ Saturate.default_config with seed }
          ~name:b.name ~outputs prog)
  in
  let fin = r.r_program in
  span "saturate.rung.static" (fun () ->
      span "acc.validate" (fun () -> Acc.Validate.check_program fin);
      ignore (span "minic.typecheck" (fun () -> Minic.Typecheck.check fin)));
  let printed, roundtrip =
    span "saturate.rung.roundtrip" (fun () ->
        let printed =
          span "minic.print" (fun () -> Minic.Pretty.program_to_string fin)
        in
        (printed, Minic.Ast.equal_program (parse printed) fin))
  in
  let kv = span "saturate.rung.verify" (fun () -> verify fin) in
  let sym = symeq fin in
  let store = Accrt.Compile.create_store () in
  let runs =
    span "saturate.rung.outputs" (fun () ->
        List.map
          (fun (engine, devices) ->
            let tp = front fin in
            let name =
              if devices = 4 then "runtime.exec_dev4"
              else if engine = Accrt.Engine.Compiled then
                "runtime.exec_compiled"
              else "runtime.exec_tree"
            in
            let o, w =
              timed name (fun () ->
                  Accrt.Interp.run ~coherence:false ~engine ~seed ~devices
                    ~kcache:store tp)
            in
            ((engine, devices), o, w))
          engine_devices)
  in
  let measured, w_traced =
    span "saturate.rung.measure" (fun () ->
        let tp = front fin in
        let tr = Obs.Trace.create () in
        let o, w =
          timed "obs.exec_traced" (fun () ->
              Accrt.Interp.run ~coherence:false ~seed ~devices:1 ~obs:tr tp)
        in
        ignore
          (span "obs.profile" (fun () ->
               Obs.Profile.of_trace ~categories:profile_categories tr));
        (o, w))
  in
  (* Ledger attached vs detached on the same instrumented program. *)
  let itp = instrument (front fin) in
  let _, w_detached =
    timed "runtime.exec_coherence" (fun () ->
        Accrt.Interp.run ~coherence:true ~seed itp)
  in
  let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
  let lo, w_ledger =
    timed "obs.exec_ledger" (fun () ->
        Accrt.Interp.run ~coherence:true ~seed ~ledger:lg itp)
  in
  let cm = lo.Accrt.Interp.device.Gpusim.Device.cm in
  ignore
    (span "obs.ledger_analyze" (fun () ->
         Obs.Ledger.analyze lg ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
           ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth));
  let lm = Accrt.Interp.metrics lo in
  let w_tree1 =
    List.assoc (Accrt.Engine.Tree, 1) (List.map (fun (k, _, w) -> (k, w)) runs)
  in
  let m = Accrt.Interp.metrics measured in
  let steps = List.length r.r_steps in
  { failure =
      first_failure
        [ ok_if (r.r_total_after <= r.r_total_before)
            "saturate: simulated time grew";
          ok_if roundtrip "print/reparse changed the accepted program";
          ok_if (Openarc_core.Kernel_verify.detected_errors kv = [])
            "verify: accepted program has a failing kernel";
          ok_if
            (List.for_all (fun (_, o, _) -> matches ~outputs ~reference o) runs)
            "accepted program changed the outputs";
          ok_if (Gpusim.Metrics.total_time m = r.r_total_after)
            "measurement run disagrees with the search's final time";
          ok_if
            (Obs.Ledger.totals lg = (lm.bytes_h2d, lm.bytes_d2h))
            "ledger does not conserve transferred bytes" ];
    counts =
      [ ("saturate.steps", i steps);
        ("minic.parse_bytes",
         i (String.length b.source + String.length printed));
        ("saturate.accepted", i r.r_accepted);
        ("saturate.kcache_hits", i r.r_compile_hits);
        ("saturate.compiles", i r.r_compiles);
        ("core.verify_launches",
         i kv.Openarc_core.Kernel_verify.metrics.Gpusim.Metrics.kernel_launches) ]
      @ symeq_counts sym @ gpusim_counts m;
    walls =
      [ ("detached", w_detached); ("ledger", w_ledger); ("tree1", w_tree1);
        ("traced", w_traced) ] }

let saturate_setup ~seed ~passes =
  let refs = Hashtbl.create 16 in
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      Hashtbl.replace refs b.name
        (reference (Minic.Parser.parse_string b.source)))
    Suite.Registry.all;
  ignore
    (Saturate.run ~name:"LUD" ~outputs:Suite.Lud.bench.outputs
       (Minic.Parser.parse_string Suite.Lud.bench.source));
  prepare ~seed ~passes Suite.Registry.all
    ~label:(fun (b : Suite.Bench_def.t) -> b.name)
    ~op:(saturate_op ~seed ~refs)

(* ---------------- compile-large ---------------- *)

let compile_op ~seed ~reference (g : Gen.program) () =
  let prog = parse g.source in
  let tp = front prog in
  let itp = instrument tp in
  let diags = lint prog in
  let signature =
    List.sort compare
      (List.fold_left
         (fun acc (d : Lint.Diag.t) -> Gen.add_signature acc (d.code, 1))
         [] diags)
  in
  let printed =
    span "minic.print" (fun () -> Minic.Pretty.program_to_string prog)
  in
  let reparsed = parse printed in
  let o =
    span "runtime.exec_coherence" (fun () ->
        Accrt.Interp.run ~coherence:true ~seed itp)
  in
  let m = Accrt.Interp.metrics o in
  { failure =
      first_failure
        [ ok_if (signature = g.signature) "lint: planted signature differs";
          ok_if (Minic.Ast.equal_program reparsed prog)
            "print/reparse changed the program";
          ok_if (matches ~outputs:g.outputs ~reference o)
            "coherence run outputs" ];
    counts =
      [ ("codegen.kernels", i (Array.length tp.Codegen.Tprog.kernels));
        ("lint.diags", i (List.length diags));
        ("minic.parse_bytes", i (String.length g.source + String.length printed)) ]
      @ gpusim_counts m;
    walls = [] }

let compile_setup ~seed ~passes =
  let programs = Gen.programs ~seed in
  let items =
    List.mapi
      (fun k (g : Gen.program) ->
        (* Unique labels: counts are summed in label order. *)
        let label = Printf.sprintf "p%d-blocks%d" k g.blocks in
        (label, g, reference (Minic.Parser.parse_string g.source)))
      programs
  in
  let warm = Gen.program [ 0; 1; 2 ] in
  ignore
    (compile_op ~seed
       ~reference:(Accrt.Eval.run_reference (Minic.Parser.parse_string warm.source)).env
       warm ());
  prepare ~seed ~passes items
    ~extra:(List.map (fun (g : Gen.program) -> g.source) programs)
    ~label:(fun (l, _, _) -> l)
    ~op:(fun (_, g, reference) -> compile_op ~seed ~reference g)

(* ------------------------------------------------------------------ *)
(* Workloads and runs                                                  *)
(* ------------------------------------------------------------------ *)

(* Reference-speed seconds of one pass, measured on a 2-core x86-64
   container.  [--seconds] is turned into a fixed number of whole passes,
   so every run of a workload does the same operations and the latency
   percentiles are taken over the same multiset of them. *)
let workloads =
  [ ("debug-suite", (debug_setup, 6.5));
    ("saturate-suite", (saturate_setup, 30.0));
    ("compile-large", (compile_setup, 2.0)) ]

let setups_per_run = 3

type phase = {
  setup_s : float list;
  latencies : float array;  (** per operation, in operation order *)
  wall : float;  (** sum of [latencies] *)
  pass_counts : (string, float) Hashtbl.t list;
  walls : (string, float) Hashtbl.t;
  failed : int;
  problems : string list;  (** run-level determinism or oracle failures *)
}

(* Keys whose counts differ between two count tables. *)
let count_diff a b =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) a [] in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) b keys in
  List.sort_uniq compare
    (List.filter (fun k -> Hashtbl.find_opt a k <> Hashtbl.find_opt b k) keys)

let run_phase ~setup ~seed ~passes ~traced =
  Spans.on := traced;
  let problems = ref [] in
  let problem s =
    prerr_endline ("perfbench: " ^ s);
    problems := s :: !problems
  in
  let setups =
    List.init setups_per_run (fun k ->
        bracketed ~trace:(-(k + 1)) (fun () ->
            span "bench.setup" (fun () -> setup ~seed ~passes)))
  in
  let prep = fst (List.hd setups) in
  if List.exists (fun (p, _) -> p.inputs <> prep.inputs) setups then
    problem "the same seed generated different inputs";
  if not traced then
    Printf.printf "# inputs digest %s\n" (Digest.to_hex (Digest.string prep.inputs));
  let latencies = ref [] and failed = ref 0 and op = ref 0 in
  let walls = Hashtbl.create 8 in
  let pass_counts =
    List.init passes (fun p ->
        let per_op = ref [] in
        List.iter
          (fun (label, run) ->
            let r, dt =
              bracketed ~trace:!op (fun () ->
                  try span "bench.op" run
                  with e ->
                    { failure = Some (Printexc.to_string e); counts = [];
                      walls = [] })
            in
            incr op;
            latencies := dt :: !latencies;
            Option.iter
              (fun why ->
                incr failed;
                prerr_endline ("perfbench: " ^ label ^ " failed: " ^ why))
              r.failure;
            per_op := (label, r.counts) :: !per_op;
            List.iter (fun (k, v) -> add walls k v) r.walls)
          (prep.pass p);
        (* Summed in label order: float sums must not depend on the
           pass's shuffle. *)
        let counts = Hashtbl.create 32 in
        List.iter
          (fun (_, c) -> List.iter (fun (k, v) -> add counts k v) c)
          (List.stable_sort (fun (a, _) (b, _) -> compare a b) !per_op);
        let count k = Option.value ~default:0.0 (Hashtbl.find_opt counts k) in
        Option.iter
          (fun why -> problem (Printf.sprintf "pass %d: %s" p why))
          (prep.check_pass count);
        counts)
  in
  let latencies = Array.of_list (List.rev !latencies) in
  List.iteri
    (fun p c ->
      List.iter
        (fun k -> problem (Printf.sprintf "pass %d: count %s differs from pass 0" p k))
        (count_diff (List.hd pass_counts) c))
    pass_counts;
  { setup_s = List.map snd setups;
    latencies;
    wall = Array.fold_left ( +. ) 0.0 latencies;
    pass_counts;
    walls;
    failed = !failed;
    problems = !problems }

(* The highest percentile with at least ten samples beyond it: the
   (n-10)-th smallest sample, at percentile 100 (n-10)/n.  With ten or
   fewer samples it is the smallest one. *)
let tail a =
  let s = Array.copy a in
  Array.sort compare s;
  let n = Array.length s in
  let k = max 0 (n - 11) in
  (s.(k), 100.0 *. float_of_int (k + 1) /. float_of_int n)

let ratio a b = if b = 0.0 then 0.0 else a /. b

let end_to_end ph =
  let n = Array.length ph.latencies in
  let tail_v, tail_p = tail ph.latencies in
  let count k =
    Option.value ~default:0.0 (Hashtbl.find_opt (List.hd ph.pass_counts) k)
  in
  Printf.printf "# %d operations; op_tail_ms is p%.1f (%d samples beyond)\n"
    n tail_p (n - 1 - max 0 (n - 11));
  [ ("setup_s", median ph.setup_s, "s");
    ("ops_per_s", float_of_int n /. ph.wall, "1/s");
    ("op_p50_ms", 1000.0 *. median (Array.to_list ph.latencies), "ms");
    ("op_tail_ms", 1000.0 *. tail_v, "ms");
    ("peak_heap_mb",
     float_of_int ((Gc.quick_stat ()).top_heap_words * (Sys.word_size / 8))
     /. 1048576.0,
     "MB");
    ("sim_device_s", count "gpusim.sim_s", "s");
    ("pass_ratio", 1.0 -. ratio (float_of_int ph.failed) (float_of_int n), "ratio") ]

(* Span names whose self seconds are per-layer metrics ([<name>_s]). *)
let layer_spans =
  [ "minic.parse"; "minic.typecheck"; "minic.print"; "acc.validate";
    "codegen.translate"; "codegen.instrument"; "lint.run";
    "runtime.exec_tree"; "runtime.exec_coherence"; "runtime.exec_compiled";
    "runtime.exec_dev4"; "runtime.reference"; "core.verify"; "core.session";
    "core.census"; "symeq.check"; "obs.exec_ledger"; "obs.exec_traced";
    "obs.profile"; "obs.ledger_analyze"; "saturate.run" ]

let rungs = [ "static"; "roundtrip"; "verify"; "outputs"; "measure" ]

let per_layer ~untraced ph =
  let self, total = Spans.times () in
  let get t k = Option.value ~default:0.0 (Hashtbl.find_opt t k) in
  let count k =
    Option.value ~default:0.0 (Hashtbl.find_opt (List.hd ph.pass_counts) k)
  in
  let all_counts k =
    List.fold_left
      (fun a c -> a +. Option.value ~default:0.0 (Hashtbl.find_opt c k))
      0.0 ph.pass_counts
  in
  let wall k = get ph.walls k in
  let traced_wall = List.fold_left ( +. ) ph.wall ph.setup_s in
  let untraced_wall = List.fold_left ( +. ) untraced.wall untraced.setup_s in
  let roots =
    List.fold_left
      (fun a (s : Spans.t) -> if s.parent < 0 then a +. Spans.duration s else a)
      0.0 !Spans.all
  in
  let layers = List.map (fun n -> (n ^ "_s", get self n, "s")) layer_spans in
  (* Where the traced wall went, by layer (the prefix of a span name). *)
  let by_layer = Hashtbl.create 16 in
  Hashtbl.iter
    (fun name s ->
      let layer =
        if String.starts_with ~prefix:"saturate.rung" name then "saturate.rung"
        else List.hd (String.split_on_char '.' name)
      in
      add by_layer layer s)
    self;
  add by_layer "unattributed" (traced_wall -. roots);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) by_layer []
  |> List.sort (fun (_, a) (_, b) -> compare b a)
  |> List.iter (fun (k, v) ->
         Printf.printf "# self %-14s %9.3f s  %5.1f%% of traced wall\n" k v
           (100.0 *. v /. traced_wall));
  layers
  @ [ ("minic.parse_bytes_per_s",
       ratio (all_counts "minic.parse_bytes") (get self "minic.parse"), "B/s");
      ("codegen.kernels", count "codegen.kernels", "count");
      ("lint.diags", count "lint.diags", "count");
      ("runtime.coherence_overhead_ratio", ratio (wall "coherence") (wall "plain"),
       "ratio");
      ("runtime.coherence_sim_overhead_ratio",
       ratio (count "gpusim.sim_s") (count "sim_plain"), "ratio");
      ("core.verify_launches", count "core.verify_launches", "count");
      ("core.session_iterations", count "core.session_iterations", "count");
      ("symeq.proved_ratio", ratio (count "symeq.proved") (count "symeq.kernels"),
       "ratio");
      ("obs.ledger_overhead_ratio", ratio (wall "ledger") (wall "detached"),
       "ratio");
      ("obs.trace_overhead_ratio", ratio (wall "traced") (wall "tree1"), "ratio");
      ("saturate.steps", count "saturate.steps", "count");
      ("saturate.accepted", count "saturate.accepted", "count");
      ("saturate.accept_ratio",
       ratio (count "saturate.accepted") (count "saturate.steps"), "ratio");
      ("saturate.step_s",
       ratio (get self "saturate.run") (all_counts "saturate.steps"), "s");
      ("saturate.kcache_hit_ratio",
       ratio (count "saturate.kcache_hits")
         (count "saturate.kcache_hits" +. count "saturate.compiles"),
       "ratio") ]
  @ List.map
      (fun r ->
        let n = "saturate.rung." ^ r in
        (n ^ "_s", get total n, "s"))
      rungs
  @ [ ("gpusim.sim_s", count "gpusim.sim_s", "s");
      ("gpusim.bytes_h2d", count "gpusim.bytes_h2d", "bytes");
      ("gpusim.bytes_d2h", count "gpusim.bytes_d2h", "bytes");
      ("gpusim.transfers", count "gpusim.transfers", "count");
      ("gpusim.launches", count "gpusim.launches", "count");
      ("bench.self_s", get self "bench.op" +. get self "bench.setup", "s");
      ("bench.untraced_wall_s", untraced_wall, "s");
      ("bench.traced_wall_s", traced_wall, "s");
      ("bench.trace_overhead_s", traced_wall -. untraced_wall, "s") ]

let json_number v =
  if Float.is_finite v then Printf.sprintf "%.17g" v else "0"

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10 and trace = ref 0 in
  let usage = "main.exe --workload W --seed N --seconds S --trace 0|1" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "W debug-suite | saturate-suite | compile-large");
      ("--seed", Arg.Set_int seed, "N workload seed");
      ("--seconds", Arg.Set_int seconds, "S run length");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end or per-layer metrics") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  let setup, pass_s =
    match List.assoc_opt !workload workloads with
    | Some w when !seconds >= 1 && (!trace = 0 || !trace = 1) -> w
    | _ ->
        prerr_endline usage;
        exit 2
  in
  let passes =
    max 1 (int_of_float (Float.round (float_of_int !seconds /. pass_s)))
  in
  let seed = !seed in
  let print_metrics =
    List.iter (fun (name, v, unit) -> Printf.printf "%-40s %20.9g %s\n" name v unit)
  in
  let untraced = run_phase ~setup ~seed ~passes ~traced:false in
  let e2e = end_to_end untraced in
  print_metrics e2e;
  let phases, metrics =
    if !trace = 0 then ([ untraced ], e2e)
    else begin
      let traced = run_phase ~setup ~seed ~passes ~traced:true in
      Spans.on := false;
      let out = ".perfbench-out" in
      if not (Sys.file_exists out) then Sys.mkdir out 0o755;
      Spans.write (Printf.sprintf "%s/spans-%s-%d.jsonl" out !workload seed);
      let traced =
        if List.for_all2 (fun a b -> count_diff a b = []) untraced.pass_counts
             traced.pass_counts
        then traced
        else { traced with problems = "traced counts differ" :: traced.problems }
      in
      let layers = per_layer ~untraced traced in
      print_metrics layers;
      ([ untraced; traced ], layers)
    end
  in
  let sum f = List.fold_left (fun a ph -> a + f ph) 0 phases in
  let attempted = sum (fun ph -> Array.length ph.latencies) in
  let failed = sum (fun ph -> ph.failed) in
  let correct = failed = 0 && List.for_all (fun ph -> ph.problems = []) phases in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, v, unit) ->
            Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
              (json_number v) unit)
          metrics))
