(* Observability subsystem: span trees and attribution, JSONL export,
   bit-exact profile conservation against the metrics accumulator,
   coherence audit-log replay, flamegraph determinism, recovery and
   device spans, counters. *)

let bench name = Option.get (Suite.Registry.find name)

let tprog_of name =
  let b = bench name in
  Openarc_core.Compiler.compile ~file:b.Suite.Bench_def.name
    b.Suite.Bench_def.source

let categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

(* ---------------------------- span tree ---------------------------- *)

let test_span_tree () =
  let tr = Obs.Trace.create () in
  Obs.Trace.with_span tr Obs.Trace.Session "session" (fun () ->
      Obs.Trace.with_span tr Obs.Trace.Phase "run" (fun () ->
          Obs.Trace.leaf tr Obs.Trace.Kernel "k0" ~directive:"k0"
            ~start:1.0 ~duration:0.5 ();
          Alcotest.(check string)
            "innermost directive" "k1"
            (Obs.Trace.with_span tr Obs.Trace.Kernel "k1" ~directive:"k1"
               (fun () -> Obs.Trace.current_directive tr));
          Alcotest.(check string)
            "directive pops with the span" Obs.Trace.host_directive
            (Obs.Trace.current_directive tr)));
  Alcotest.(check int) "all spans closed" 0 (Obs.Trace.open_spans tr);
  (match Obs.Trace.spans tr with
  | [ s0; s1; s2; s3 ] ->
      Alcotest.(check (option int)) "root has no parent" None s0.Obs.Trace.sp_parent;
      Alcotest.(check (option int)) "phase under session" (Some s0.Obs.Trace.sp_id)
        s1.Obs.Trace.sp_parent;
      Alcotest.(check (option int)) "leaf under phase" (Some s1.Obs.Trace.sp_id)
        s2.Obs.Trace.sp_parent;
      Alcotest.(check (option int)) "kernel under phase" (Some s1.Obs.Trace.sp_id)
        s3.Obs.Trace.sp_parent;
      Alcotest.(check string) "leaf kind" "kernel"
        (Obs.Trace.kind_name s2.Obs.Trace.sp_kind);
      Alcotest.(check (option (float 0.))) "leaf pre-timed end" (Some 1.5)
        s2.Obs.Trace.sp_end
  | spans ->
      Alcotest.failf "expected 4 spans, got %d" (List.length spans));
  Alcotest.(check string) "host directive outside spans"
    Obs.Trace.host_directive
    (Obs.Trace.current_directive tr)

let test_counters () =
  let tr = Obs.Trace.create () in
  Obs.Trace.incr tr "a";
  Obs.Trace.count tr "b" 5;
  Obs.Trace.incr tr "a";
  Alcotest.(check (list (pair string int)))
    "first-use order, accumulated"
    [ ("a", 2); ("b", 5) ]
    (Obs.Trace.counters tr)

(* ------------------------------ JSONL ------------------------------ *)

let test_jsonl () =
  let tr = Obs.Trace.create () in
  Obs.Trace.with_span tr Obs.Trace.Session "s \"quoted\"\n" (fun () ->
      Obs.Trace.charge tr ~category:"CPU Time" 0.25);
  Obs.Trace.incr tr "ticks";
  let lines =
    String.split_on_char '\n' (Obs.Trace.to_jsonl tr)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "several lines" true (List.length lines >= 4);
  let parsed = List.map Obs.Pjson.parse lines in
  (match parsed with
  | meta :: _ ->
      Alcotest.(check (option string))
        "schema header" (Some "openarc.obs")
        (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" meta))
  | [] -> Alcotest.fail "empty JSONL");
  let types =
    List.filter_map
      (fun v -> Option.map Obs.Pjson.str_exn (Obs.Pjson.member "type" v))
      parsed
  in
  List.iter
    (fun ty ->
      Alcotest.(check bool) (Fmt.str "known line type %s" ty) true
        (List.mem ty [ "meta"; "span_begin"; "span_end"; "charge"; "counter" ]))
    types;
  Alcotest.(check bool) "has charge line" true (List.mem "charge" types);
  Alcotest.(check bool) "has counter line" true (List.mem "counter" types)

(* ------------------------- conservation --------------------------- *)

let test_conservation () =
  let tp = tprog_of "JACOBI" in
  let tr = Obs.Trace.create () in
  let o = Accrt.Interp.run ~coherence:false ~seed:42 ~obs:tr tp in
  let total = Gpusim.Metrics.total_time (Accrt.Interp.metrics o) in
  let p = Obs.Profile.of_trace ~categories tr in
  Alcotest.(check bool) "total is positive" true (total > 0.0);
  (* Bit-exact float equality, not an epsilon: the profile replays the
     accumulator's exact addition sequence. *)
  Alcotest.(check bool) "bit-exact conservation" true
    (Obs.Profile.conserves p ~total);
  Alcotest.(check bool) "Float.equal agrees" true
    (Float.equal p.Obs.Profile.p_total total);
  (* Per-category totals likewise match the accumulator's. *)
  List.iter
    (fun c ->
      let name = Gpusim.Metrics.category_name c in
      Alcotest.(check bool) (Fmt.str "category %s conserved" name) true
        (Float.equal
           (List.assoc name p.Obs.Profile.p_totals)
           (Gpusim.Metrics.time_of (Accrt.Interp.metrics o) c)))
    Gpusim.Metrics.all_categories;
  (* Attribution is real: more than just the host row. *)
  Alcotest.(check bool) "several directive rows" true
    (List.length p.Obs.Profile.p_rows > 1)

(* -------------------------- audit replay --------------------------- *)

let tprog_device_of = function
  | Obs.Audit.Cpu -> Codegen.Tprog.Cpu
  | Obs.Audit.Gpu -> Codegen.Tprog.Gpu

let test_audit_replay () =
  let b = bench "JACOBI" in
  let tp =
    Codegen.Checkgen.instrument
      (Openarc_core.Compiler.compile b.Suite.Bench_def.source)
  in
  let audit = Obs.Audit.create () in
  let o = Accrt.Interp.run ~coherence:true ~seed:42 ~audit tp in
  Alcotest.(check bool) "transitions recorded" true
    (Obs.Audit.length audit > 0);
  (* Replaying the log from the all-fresh initial state must land on the
     same final statuses the runtime reports. *)
  List.iter
    (fun ((var, dev), st) ->
      let live =
        Accrt.Coherence.get o.Accrt.Interp.coherence var (tprog_device_of dev)
      in
      Alcotest.(check string)
        (Fmt.str "replayed state of %s/%s" var (Obs.Audit.device_name dev))
        (Codegen.Tprog.status_name live)
        (Obs.Audit.status_name st))
    (Obs.Audit.final_states audit);
  (* Sequence numbers are dense and ordered. *)
  List.iteri
    (fun i e -> Alcotest.(check int) "dense seq" i e.Obs.Audit.a_seq)
    (Obs.Audit.entries audit);
  (* Every JSONL line parses. *)
  String.split_on_char '\n' (Obs.Audit.to_jsonl audit)
  |> List.filter (fun l -> l <> "")
  |> List.iter (fun l ->
         match Obs.Pjson.member "type" (Obs.Pjson.parse l) with
         | Some (Obs.Pjson.Str "audit") -> ()
         | _ -> Alcotest.fail "audit line without type=audit")

(* ------------------------- determinism ----------------------------- *)

let run_traced name =
  let tp = tprog_of name in
  let tr = Obs.Trace.create () in
  let o = Accrt.Interp.run ~coherence:false ~seed:42 ~obs:tr tp in
  (tr, o)

let test_flame_deterministic () =
  let tr1, _ = run_traced "JACOBI" in
  let tr2, _ = run_traced "JACOBI" in
  let f1 = Obs.Profile.folded tr1 and f2 = Obs.Profile.folded tr2 in
  Alcotest.(check string) "byte-identical across runs" f1 f2;
  let lines =
    String.split_on_char '\n' f1 |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check bool) "non-empty" true (lines <> []);
  Alcotest.(check bool) "sorted" true (List.sort compare lines = lines);
  List.iter
    (fun l ->
      match String.rindex_opt l ' ' with
      | None -> Alcotest.failf "malformed folded line %S" l
      | Some i ->
          let v = String.sub l (i + 1) (String.length l - i - 1) in
          Alcotest.(check bool) (Fmt.str "positive ns in %S" l) true
            (match int_of_string_opt v with Some n -> n > 0 | None -> false))
    lines

let test_profile_json_deterministic () =
  let entry () =
    let tr, o = run_traced "JACOBI" in
    let p = Obs.Profile.of_trace ~categories tr in
    ignore o;
    Obs.Profile.to_json ~name:"JACOBI" ~seed:42 p
  in
  let j1 = entry () and j2 = entry () in
  Alcotest.(check string) "byte-identical JSON" j1 j2;
  let v = Obs.Pjson.parse j1 in
  Alcotest.(check (option string))
    "schema" (Some "openarc.obs.profile")
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
  let rows = Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "rows" v)) in
  Alcotest.(check bool) "rows present" true (rows <> [])

(* ---------------------- recovery & device spans --------------------- *)

let test_recovery_spans () =
  let tp = tprog_of "JACOBI" in
  let plan =
    match Gpusim.Fault_plan.of_spec ~seed:42 "xfer-fail" with
    | Ok p -> p
    | Error e -> Alcotest.failf "fault spec: %s" e
  in
  let tr = Obs.Trace.create () in
  let o =
    Accrt.Interp.run ~coherence:false ~seed:42 ~plan
      ~resilience:Accrt.Resilience.Retry ~obs:tr tp
  in
  ignore o;
  let recoveries =
    List.filter
      (fun s -> s.Obs.Trace.sp_kind = Obs.Trace.Recovery)
      (Obs.Trace.spans tr)
  in
  Alcotest.(check bool) "recovery spans recorded" true (recoveries <> []);
  List.iter
    (fun s ->
      Alcotest.(check bool) "has cause attr" true
        (List.mem_assoc "cause" s.Obs.Trace.sp_attrs);
      Alcotest.(check bool) "has ok attr" true
        (List.mem_assoc "ok" s.Obs.Trace.sp_attrs))
    recoveries;
  Alcotest.(check bool) "counter mirrors spans" true
    (List.assoc_opt "recoveries" (Obs.Trace.counters tr)
    = Some (List.length recoveries))

let test_device_spans_and_counters () =
  let tp = tprog_of "JACOBI" in
  let tr = Obs.Trace.create () in
  let o = Accrt.Interp.run ~coherence:false ~seed:42 ~trace:true ~obs:tr tp in
  let m = Accrt.Interp.metrics o in
  let device_leaves =
    List.filter
      (fun s -> s.Obs.Trace.sp_kind = Obs.Trace.Device)
      (Obs.Trace.spans tr)
  in
  Alcotest.(check bool) "device leaves imported" true (device_leaves <> []);
  Alcotest.(check (option int))
    "launch counter matches metrics"
    (Some m.Gpusim.Metrics.kernel_launches)
    (List.assoc_opt "launches" (Obs.Trace.counters tr));
  Alcotest.(check bool) "transfer counter recorded" true
    (match List.assoc_opt "transfers" (Obs.Trace.counters tr) with
    | Some n -> n > 0
    | None -> false)

(* ------------------------------ stats ------------------------------ *)

(* Exact nearest-rank percentiles at the edges: empty (nan), a single
   sample (every percentile of itself), and an N-sample ladder where the
   ranks are computable by hand. *)
let test_stats_percentiles () =
  Alcotest.(check bool)
    "empty population is nan" true
    (Float.is_nan (Obs.Stats.percentile [||] 0.5));
  let one = [| 42e-6 |] in
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Fmt.str "p%.0f of singleton" (100. *. q))
        42e-6
        (Obs.Stats.percentile one q))
    [ 0.5; 0.95; 0.99; 1.0 ];
  let n = 100 in
  let samples =
    Array.init n (fun i -> float_of_int (n - i) *. 1e-6)
  in
  Alcotest.(check (float 0.)) "p50 of 1..100" (50. *. 1e-6)
    (Obs.Stats.percentile samples 0.5);
  Alcotest.(check (float 0.)) "p95 of 1..100" (95. *. 1e-6)
    (Obs.Stats.percentile samples 0.95);
  Alcotest.(check (float 0.)) "p99 of 1..100" (99. *. 1e-6)
    (Obs.Stats.percentile samples 0.99);
  Alcotest.(check bool) "input left unsorted" true
    (samples.(0) = 100. *. 1e-6)

(* --------------------------- device lanes --------------------------- *)

(* The multi-device Chrome export: one lane (tid) per device-set member
   plus the host lane at tid 0, and device-loss/failover instant
   events.  Parsed with the tests' own strict JSON parser. *)
let test_trace_lanes () =
  let tp = tprog_of "BFS" in
  let devices = 3 in
  let run plan =
    let tr = Obs.Trace.create () in
    let o =
      Accrt.Interp.run ~coherence:false ~seed:42 ~trace:true ~devices
        ?plan ~resilience:Accrt.Resilience.Full ~obs:tr tp
    in
    Obs.Pjson.parse
      (Obs.Pjson.to_string
         (Obs.Chrome.of_run ~trace:(Some tr) ~ledger:None
            (Array.map
               (fun d -> d.Gpusim.Device.timeline)
               o.Accrt.Interp.devset.Gpusim.Device_set.devices)))
  in
  let tids v =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           Option.map
             (fun t -> int_of_float (Obs.Pjson.num_exn t))
             (Obs.Pjson.member "tid" e))
         (Obs.Pjson.arr_exn v))
  in
  let v = run None in
  Alcotest.(check (list int))
    "one lane per member plus host"
    (List.init (devices + 1) Fun.id)
    (tids v);
  Alcotest.(check bool)
    "host lane carries directive spans" true
    (List.exists
       (fun e ->
         Obs.Pjson.member "tid" e = Some (Obs.Pjson.Num "0")
         && Obs.Pjson.member "ph" e = Some (Obs.Pjson.Str "X"))
       (Obs.Pjson.arr_exn v));
  (* Lose member 1: its loss must surface as instant events — the fault
     on the dying member's lane, the recovery decision on the host's. *)
  let plan =
    Gpusim.Fault_plan.create ~seed:42
      [ Gpusim.Fault_plan.mk_rule ~count:1 ~dev:1
          Gpusim.Fault_plan.Device_lost ]
  in
  let v = run (Some plan) in
  let instants =
    List.filter
      (fun e -> Obs.Pjson.member "ph" e = Some (Obs.Pjson.Str "i"))
      (Obs.Pjson.arr_exn v)
  in
  Alcotest.(check bool) "instant events present" true (instants <> []);
  Alcotest.(check bool)
    "device-loss instant on the lost member's lane" true
    (List.exists
       (fun e -> Obs.Pjson.member "tid" e = Some (Obs.Pjson.Num "2"))
       instants);
  Alcotest.(check bool)
    "failover instant on the host lane" true
    (List.exists
       (fun e -> Obs.Pjson.member "tid" e = Some (Obs.Pjson.Num "0"))
       instants)

(* ------------------------- memory lanes ----------------------------- *)

(* The ledger's live allocated-bytes samples surface as Chrome counter
   ("C") events on each member's device lane: name "allocated", tid =
   ordinal + 1, args.bytes the live total after the event. *)
let test_memory_counter_lanes () =
  let tp = tprog_of "BFS" in
  let devices = 3 in
  let tr = Obs.Trace.create () in
  let lg = Obs.Ledger.create ~devices ~schedule:"block" in
  let o =
    Accrt.Interp.run ~coherence:false ~seed:42 ~trace:true ~devices
      ~ledger:lg ~obs:tr tp
  in
  let v =
    Obs.Pjson.parse
      (Obs.Pjson.to_string
         (Obs.Chrome.of_run ~trace:(Some tr) ~ledger:(Some lg)
            (Array.map
               (fun d -> d.Gpusim.Device.timeline)
               o.Accrt.Interp.devset.Gpusim.Device_set.devices)))
  in
  let counters =
    List.filter
      (fun e -> Obs.Pjson.member "ph" e = Some (Obs.Pjson.Str "C"))
      (Obs.Pjson.arr_exn v)
  in
  Alcotest.(check bool) "counter events present" true (counters <> []);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "counter name" (Some "allocated")
        (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "name" e));
      let tid =
        int_of_float
          (Obs.Pjson.num_exn (Option.get (Obs.Pjson.member "tid" e)))
      in
      Alcotest.(check bool) "tid is a device lane" true
        (tid >= 1 && tid <= devices);
      Alcotest.(check bool) "args carry live bytes" true
        (match Obs.Pjson.member "args" e with
        | Some args -> (
            match Obs.Pjson.member "bytes" args with
            | Some (Obs.Pjson.Num b) -> float_of_string b >= 0.0
            | _ -> false)
        | None -> false))
    counters;
  let lanes =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           Option.map
             (fun t -> int_of_float (Obs.Pjson.num_exn t))
             (Obs.Pjson.member "tid" e))
         counters)
  in
  Alcotest.(check (list int))
    "every member gets a memory lane"
    (List.init devices (fun i -> i + 1))
    lanes

(* ---------------------------- imbalance ----------------------------- *)

(* Triangular weights under 4 parts: block splitting piles the heavy
   tail onto one shard, cyclic interleaves it — the analyzer must
   re-cost the recorded weights accordingly and recommend the switch. *)
let test_imbalance_recost () =
  let parts = 4 and total = 64 in
  let weights = Array.init total (fun i -> i) in
  let unit = 1e-9 and overhead = 5e-6 in
  let shard_ops p =
    let acc = ref 0 in
    Array.iteri
      (fun i w ->
        if Gpusim.Device_set.(owner Block) ~parts ~total i = p then
          acc := !acc + w)
      weights;
    !acc
  in
  let l =
    { Obs.Imbalance.l_kernel = "k0";
      l_loc = "k0.c:1";
      l_parts = parts;
      l_total = total;
      l_weights = weights;
      l_unit = unit;
      l_overhead = overhead;
      l_shards =
        Array.init parts (fun p ->
            { Obs.Imbalance.sh_part = p;
              sh_dev = p;
              sh_iters = total / parts;
              sh_ops = shard_ops p;
              sh_time = overhead +. (unit *. float_of_int (shard_ops p));
              sh_failover = false });
      l_barrier = 0.0;
      l_wall = overhead +. (unit *. float_of_int (shard_ops (parts - 1)));
      l_merge = 0.0;
      l_merge_bytes = 0 }
  in
  let wb = Obs.Imbalance.predict_work l ~schedule:Gpusim.Device_set.Block in
  let wc = Obs.Imbalance.predict_work l ~schedule:Gpusim.Device_set.Cyclic in
  (* Block's heaviest shard owns iterations 48..63: 888 ops.  Cyclic's
     owns {3,7,...,63}: 528 ops. *)
  Alcotest.(check (float 1e-15)) "block heaviest share" (888. *. unit) wb;
  Alcotest.(check (float 1e-15)) "cyclic heaviest share" (528. *. unit) wc;
  Alcotest.(check (float 1e-15))
    "predict = overhead + work"
    (overhead +. wb)
    (Obs.Imbalance.predict l ~schedule:Gpusim.Device_set.Block);
  let t = Obs.Imbalance.create ~devices:parts ~schedule:"block" in
  Obs.Imbalance.record t l;
  let a = Obs.Imbalance.analyze t in
  Alcotest.(check string) "recommends cyclic" "cyclic"
    a.Obs.Imbalance.a_recommended;
  (match a.Obs.Imbalance.a_kernels with
  | [ r ] ->
      Alcotest.(check string) "verdict switches" "switch"
        r.Obs.Imbalance.r_verdict;
      Alcotest.(check bool) "gain positive" true
        (r.Obs.Imbalance.r_gain > 0.0)
  | rs -> Alcotest.failf "expected 1 kernel report, got %d" (List.length rs));
  (* The same weights run under cyclic must be told to keep it. *)
  let t' = Obs.Imbalance.create ~devices:parts ~schedule:"cyclic" in
  Obs.Imbalance.record t' l;
  Alcotest.(check string) "cyclic keeps cyclic" "cyclic"
    (Obs.Imbalance.analyze t').Obs.Imbalance.a_recommended

(* An instrumented JACOBI run with the timeline, a trace and an audit
   attached: the timeline labels, span locations and audit points it
   records are pinned in test/golden/jacobi.observers (see [Goldens]). *)
let test_observer_labels () =
  Alcotest.(check string) "jacobi.observers matches its golden"
    (Goldens.read "jacobi.observers") (Goldens.observers ())

let tests =
  [ Alcotest.test_case "span tree" `Quick test_span_tree;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "jsonl export" `Quick test_jsonl;
    Alcotest.test_case "bit-exact conservation" `Quick test_conservation;
    Alcotest.test_case "audit replay" `Quick test_audit_replay;
    Alcotest.test_case "flamegraph determinism" `Quick test_flame_deterministic;
    Alcotest.test_case "profile json determinism" `Quick
      test_profile_json_deterministic;
    Alcotest.test_case "recovery spans" `Quick test_recovery_spans;
    Alcotest.test_case "device spans & counters" `Quick
      test_device_spans_and_counters;
    Alcotest.test_case "stats percentile edges" `Quick
      test_stats_percentiles;
    Alcotest.test_case "chrome device lanes" `Quick test_trace_lanes;
    Alcotest.test_case "chrome memory counter lanes" `Quick
      test_memory_counter_lanes;
    Alcotest.test_case "imbalance re-costing" `Quick test_imbalance_recost;
    Alcotest.test_case "attached observers' labels golden" `Quick
      test_observer_labels ]
