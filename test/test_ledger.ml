(* Data-movement ledger: exact byte conservation against the per-device
   metrics accumulators across the full benchmark suite x both engines x
   device counts {1,2,4}, byte-stable JSON export, the counterfactual
   analyzer's verdicts on synthetic ledgers (hoist / present /
   materiality), live watermarks and lifetimes, and multi-device cause
   attribution. *)

let bench name = Option.get (Suite.Registry.find name)

let run_ledgered ?(instrument = false) ~engine ~devices ~schedule
    (b : Suite.Bench_def.t) =
  let prog = Minic.Parser.parse_string ~file:b.name b.source in
  let env = Minic.Typecheck.check prog in
  let tp = Codegen.Translate.translate env prog in
  let tp = if instrument then Codegen.Checkgen.instrument tp else tp in
  let lg =
    Obs.Ledger.create ~devices
      ~schedule:(Gpusim.Device_set.schedule_name schedule)
  in
  let o =
    Accrt.Interp.exec
      { Accrt.Interp.default with engine; seed = 42; devices; schedule }
      { Accrt.Interp.detached with ledger = Some lg }
      tp
  in
  (lg, o)

let metrics_bytes (o : Accrt.Interp.outcome) =
  Array.fold_left
    (fun (h, d) dev ->
      let m = dev.Gpusim.Device.metrics in
      (h + m.Gpusim.Metrics.bytes_h2d, d + m.Gpusim.Metrics.bytes_d2h))
    (0, 0) o.Accrt.Interp.devset.Gpusim.Device_set.devices

(* ------------------------- conservation ---------------------------- *)

(* Counted ledger bytes must equal the DMA accumulators summed over
   every device-set member — exact integer equality, no tolerance. *)
let conservation_case (b : Suite.Bench_def.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      List.iter
        (fun engine ->
          List.iter
            (fun devices ->
              let lg, o =
                run_ledgered ~engine ~devices
                  ~schedule:Gpusim.Device_set.Block b
              in
              let mh, md = metrics_bytes o in
              let lh, ld = Obs.Ledger.totals lg in
              let what =
                Fmt.str "%s/%s/%d device(s)" b.name
                  (Accrt.Engine.to_string engine)
                  devices
              in
              Alcotest.(check int) (what ^ ": h2d conserved") mh lh;
              Alcotest.(check int) (what ^ ": d2h conserved") md ld;
              Alcotest.(check bool) (what ^ ": bytes moved") true (lh > 0))
            [ 1; 2; 4 ])
        [ Accrt.Engine.Tree; Accrt.Engine.Compiled ])

(* --------------------- analyzer: synthetic ------------------------- *)

let lat = 10e-6
let bw = 8e9
let cost b = lat +. (float_of_int b /. bw)

(* A loop-invariant upload re-executed with no intervening host write:
   every repeat is hoistable and the site earns a "hoist" verdict whose
   saving is exactly the modeled DMA time of the dropped transfers. *)
let test_analyzer_hoist () =
  let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
  for i = 1 to 4 do
    Obs.Ledger.xfer lg ~array:"a" ~dir:Obs.Ledger.H2d
      ~cause:Obs.Ledger.Copyin ~bytes:1024 ~dev:0 ~site:"copyin(a)"
      ~loc:"t.c:1" ~exec:i
      ~time:(float_of_int i) ~duration:1e-6 ~counted:true ~redundant:false
      ~hoist:(i > 1)
  done;
  let a = Obs.Ledger.analyze lg ~pcie_latency:lat ~pcie_bandwidth:bw in
  Alcotest.(check int) "h2d total" 4096 a.Obs.Ledger.a_h2d_bytes;
  Alcotest.(check int) "d2h total" 0 a.Obs.Ledger.a_d2h_bytes;
  match a.Obs.Ledger.a_sites with
  | [ s ] ->
      Alcotest.(check string) "rewrite" "hoist" s.Obs.Ledger.s_rewrite;
      Alcotest.(check int) "hoistable repeats" 3 s.Obs.Ledger.s_hoistable;
      Alcotest.(check int) "wasted bytes" 3072 s.Obs.Ledger.s_wasted_bytes;
      Alcotest.(check (float 1e-15))
        "saving = 3 modeled transfers"
        (3.0 *. cost 1024)
        s.Obs.Ledger.s_saved_s;
      Alcotest.(check string) "verdict" "apply" s.Obs.Ledger.s_verdict;
      Alcotest.(check (float 1e-15))
        "analysis saving totals apply sites" s.Obs.Ledger.s_saved_s
        a.Obs.Ledger.a_saved_s
  | ss -> Alcotest.failf "expected 1 site, got %d" (List.length ss)

(* A hoist flag on a site's only transfer is vacuous: there is no
   previous transfer to hoist to, so nothing may be counted. *)
let test_analyzer_hoist_needs_repeat () =
  let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
  Obs.Ledger.xfer lg ~array:"a" ~dir:Obs.Ledger.H2d
    ~cause:Obs.Ledger.Copyin ~bytes:1024 ~dev:0 ~site:"copyin(a)"
    ~loc:"t.c:1" ~exec:1 ~time:0.0 ~duration:1e-6 ~counted:true
    ~redundant:false ~hoist:true;
  let a = Obs.Ledger.analyze lg ~pcie_latency:lat ~pcie_bandwidth:bw in
  match a.Obs.Ledger.a_sites with
  | [ s ] ->
      Alcotest.(check int) "no hoistable repeat" 0 s.Obs.Ledger.s_hoistable;
      Alcotest.(check string) "rewrite" "none" s.Obs.Ledger.s_rewrite;
      Alcotest.(check int) "nothing wasted" 0 a.Obs.Ledger.a_wasted_bytes
  | ss -> Alcotest.failf "expected 1 site, got %d" (List.length ss)

(* A download whose destination copy was already fresh on every
   execution: copy -> present. *)
let test_analyzer_present () =
  let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
  List.iter
    (fun i ->
      Obs.Ledger.xfer lg ~array:"b" ~dir:Obs.Ledger.D2h
        ~cause:Obs.Ledger.Copyout ~bytes:2048 ~dev:0 ~site:"copyout(b)"
        ~loc:"t.c:9" ~exec:i
        ~time:(float_of_int i) ~duration:1e-6 ~counted:true ~redundant:true
        ~hoist:false)
    [ 1; 2 ];
  let a = Obs.Ledger.analyze lg ~pcie_latency:lat ~pcie_bandwidth:bw in
  match a.Obs.Ledger.a_sites with
  | [ s ] ->
      Alcotest.(check string) "rewrite" "present" s.Obs.Ledger.s_rewrite;
      Alcotest.(check int) "all redundant" 2 s.Obs.Ledger.s_redundant;
      Alcotest.(check int) "wasted bytes" 4096 s.Obs.Ledger.s_wasted_bytes;
      Alcotest.(check string) "verdict" "apply" s.Obs.Ledger.s_verdict
  | ss -> Alcotest.failf "expected 1 site, got %d" (List.length ss)

(* An immaterial rewrite (saving under the materiality share of the
   modeled transfer time) keeps the clauses as written. *)
let test_analyzer_materiality () =
  let lg = Obs.Ledger.create ~devices:1 ~schedule:"block" in
  Obs.Ledger.xfer lg ~array:"big" ~dir:Obs.Ledger.H2d
    ~cause:Obs.Ledger.Copyin ~bytes:100_000_000 ~dev:0 ~site:"copyin(big)"
    ~loc:"t.c:1" ~exec:1 ~time:0.0 ~duration:1e-2 ~counted:true
    ~redundant:false ~hoist:false;
  List.iter
    (fun (i, red) ->
      Obs.Ledger.xfer lg ~array:"tiny" ~dir:Obs.Ledger.H2d
        ~cause:Obs.Ledger.Copyin ~bytes:8 ~dev:0 ~site:"copyin(tiny)"
        ~loc:"t.c:2" ~exec:i
        ~time:(float_of_int i) ~duration:1e-6 ~counted:true ~redundant:red
        ~hoist:false)
    [ (1, false); (2, true) ];
  let a = Obs.Ledger.analyze lg ~pcie_latency:lat ~pcie_bandwidth:bw in
  let tiny =
    List.find
      (fun s -> s.Obs.Ledger.s_array = "tiny")
      a.Obs.Ledger.a_sites
  in
  Alcotest.(check bool) "a rewrite exists" true
    (tiny.Obs.Ledger.s_rewrite <> "none");
  Alcotest.(check string) "but it is immaterial" "keep"
    tiny.Obs.Ledger.s_verdict;
  Alcotest.(check (float 0.)) "no apply savings" 0.0 a.Obs.Ledger.a_saved_s

(* ------------------- watermarks and lifetimes ---------------------- *)

let test_watermarks () =
  let lg = Obs.Ledger.create ~devices:2 ~schedule:"block" in
  Obs.Ledger.mem lg ~array:"a" ~dev:0 ~bytes:1000 ~allocated:1000 ~time:0.0;
  Obs.Ledger.mem lg ~array:"b" ~dev:0 ~bytes:500 ~allocated:1500 ~time:1.0;
  Obs.Ledger.mem lg ~array:"c" ~dev:1 ~bytes:200 ~allocated:200 ~time:1.5;
  Obs.Ledger.mem lg ~array:"a" ~dev:0 ~bytes:(-1000) ~allocated:500
    ~time:2.0;
  let a = Obs.Ledger.analyze lg ~pcie_latency:lat ~pcie_bandwidth:bw in
  Alcotest.(check bool) "member 0 watermark" true
    (List.mem (0, 500, 1500) a.Obs.Ledger.a_peaks);
  Alcotest.(check bool) "member 1 watermark" true
    (List.mem (1, 200, 200) a.Obs.Ledger.a_peaks);
  Alcotest.(check int) "peak over members" 1500 (Obs.Ledger.peak_bytes a);
  let lt_a =
    List.find
      (fun l -> l.Obs.Ledger.lt_array = "a" && l.Obs.Ledger.lt_dev = 0)
      a.Obs.Ledger.a_lifetimes
  in
  Alcotest.(check (option (float 0.))) "freed interval closed" (Some 2.0)
    lt_a.Obs.Ledger.lt_free;
  let lt_b =
    List.find (fun l -> l.Obs.Ledger.lt_array = "b") a.Obs.Ledger.a_lifetimes
  in
  Alcotest.(check (option (float 0.))) "live interval open" None
    lt_b.Obs.Ledger.lt_free;
  (* One chrome counter sample per allocation event, on the member's
     device lane (ordinal + 1). *)
  let events =
    List.map
      (fun e -> Obs.Pjson.parse (Obs.Pjson.to_line e))
      (Obs.Chrome.counter_lanes lg)
  in
  Alcotest.(check int) "one counter per event" 4 (List.length events);
  List.iter
    (fun e ->
      Alcotest.(check (option string)) "counter phase" (Some "C")
        (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "ph" e));
      Alcotest.(check (option string)) "counter name" (Some "allocated")
        (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "name" e));
      let tid =
        int_of_float (Obs.Pjson.num_exn (Option.get (Obs.Pjson.member "tid" e)))
      in
      Alcotest.(check bool) "device-lane tid" true (tid = 1 || tid = 2);
      match Obs.Pjson.member "args" e with
      | Some args ->
          Alcotest.(check bool) "live bytes sampled" true
            (match Obs.Pjson.member "bytes" args with
            | Some (Obs.Pjson.Num v) -> float_of_string v >= 0.0
            | _ -> false)
      | None -> Alcotest.fail "counter without args")
    events

(* -------------------- real run: counterfactual --------------------- *)

(* The naive BACKPROP moves the same arrays through an in-loop data
   region over and over: the analyzer must find nonzero waste, an apply
   verdict, and a positive predicted saving — the prediction the bench
   memtrace tier confirms against a measured diff-profile delta. *)
let test_backprop_counterfactual () =
  let analyze_of () =
    let lg, o =
      run_ledgered ~instrument:true ~engine:Accrt.Engine.Tree ~devices:1
        ~schedule:Gpusim.Device_set.Block (bench "BACKPROP")
    in
    let mh, md = metrics_bytes o in
    let lh, ld = Obs.Ledger.totals lg in
    Alcotest.(check int) "instrumented h2d conserved" mh lh;
    Alcotest.(check int) "instrumented d2h conserved" md ld;
    let cm = o.Accrt.Interp.device.Gpusim.Device.cm in
    Obs.Ledger.analyze lg ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
      ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth
  in
  let a = analyze_of () in
  Alcotest.(check bool) "waste found" true (a.Obs.Ledger.a_wasted_bytes > 0);
  Alcotest.(check bool) "an apply verdict" true
    (List.exists
       (fun s -> s.Obs.Ledger.s_verdict = "apply")
       a.Obs.Ledger.a_sites);
  Alcotest.(check bool) "positive predicted saving" true
    (a.Obs.Ledger.a_saved_s > 0.0);
  (* Canonical export: byte-stable across identical runs, with the
     declared schema header. *)
  let j1 = Obs.Ledger.to_json ~name:"BACKPROP" ~seed:42 a in
  let j2 = Obs.Ledger.to_json ~name:"BACKPROP" ~seed:42 (analyze_of ()) in
  Alcotest.(check string) "byte-stable JSON" j1 j2;
  let v = Obs.Pjson.parse j1 in
  Alcotest.(check (option string)) "schema" (Some Obs.Ledger.schema)
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
  Alcotest.(check (option (float 0.)))
    "version"
    (Some (float_of_int Obs.Ledger.version))
    (Option.map Obs.Pjson.num_exn (Obs.Pjson.member "version" v));
  let sites = Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "sites" v)) in
  Alcotest.(check int) "one row per site"
    (List.length a.Obs.Ledger.a_sites)
    (List.length sites)

(* --------------------- multi-device attribution -------------------- *)

let test_multi_device_causes () =
  let devices = 4 in
  let lg, o =
    run_ledgered ~engine:Accrt.Engine.Tree ~devices
      ~schedule:Gpusim.Device_set.Block (bench "JACOBI")
  in
  ignore o;
  let entries = Obs.Ledger.entries lg in
  let h2d_devs =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           if e.Obs.Ledger.e_counted && e.Obs.Ledger.e_dir = Obs.Ledger.H2d
           then Some e.Obs.Ledger.e_dev
           else None)
         entries)
  in
  Alcotest.(check bool) "uploads attributed to several members" true
    (List.length h2d_devs > 1);
  let a = Obs.Ledger.analyze lg ~pcie_latency:lat ~pcie_bandwidth:bw in
  Alcotest.(check bool) "copyin cause recorded" true
    (List.mem_assoc "copyin" a.Obs.Ledger.a_causes);
  Alcotest.(check bool) "multi-device gather cause recorded" true
    (List.mem_assoc "gather" a.Obs.Ledger.a_causes);
  List.iter
    (fun (c, b) ->
      Alcotest.(check bool) (Fmt.str "cause %s has bytes" c) true (b > 0))
    a.Obs.Ledger.a_causes

let tests =
  List.map conservation_case Suite.Registry.all
  @ [ Alcotest.test_case "analyzer: hoist" `Quick test_analyzer_hoist;
      Alcotest.test_case "analyzer: hoist needs a repeat" `Quick
        test_analyzer_hoist_needs_repeat;
      Alcotest.test_case "analyzer: present" `Quick test_analyzer_present;
      Alcotest.test_case "analyzer: materiality" `Quick
        test_analyzer_materiality;
      Alcotest.test_case "watermarks & lifetimes" `Quick test_watermarks;
      Alcotest.test_case "BACKPROP counterfactual" `Quick
        test_backprop_counterfactual;
      Alcotest.test_case "multi-device causes" `Quick
        test_multi_device_causes ]
