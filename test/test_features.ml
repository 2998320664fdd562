(* OpenACC feature semantics beyond the core scheme: if clauses, launch
   dimensions, declare, timeline tracing, environment configuration. *)


let run ?(trace = false) src =
  Accrt.Interp.exec
    { Accrt.Interp.default with timeline = trace }
    Accrt.Interp.detached
    (Openarc_core.Compiler.compile src)

let out_f o name = Accrt.Value.to_float (Accrt.Interp.host_scalar o name)

(* --------------------------- if clause --------------------------- *)

let if_src cond =
  Fmt.str
    "int main() { int n = 16; int usegpu = %d; float a[n];\nfor (int i = \
     0; i < n; i++) { a[i] = 1.0; }\n#pragma acc kernels loop \
     if(usegpu)\nfor (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; \
     }\nfloat cs = 0.0;\nfor (int i = 0; i < n; i++) { cs = cs + a[i]; \
     }\nreturn 0; }"
    cond

let test_if_on_compute () =
  let on = run (if_src 1) in
  let off = run (if_src 0) in
  (* results identical either way... *)
  Alcotest.(check (float 0.)) "gpu result" 32.0 (out_f on "cs");
  Alcotest.(check (float 0.)) "host-fallback result" 32.0 (out_f off "cs");
  (* ...but the false condition launches nothing and moves nothing *)
  let m_on = Accrt.Interp.metrics on in
  let m_off = Accrt.Interp.metrics off in
  Alcotest.(check int) "launch when true" 1 m_on.Gpusim.Metrics.kernel_launches;
  Alcotest.(check int) "no launch when false" 0
    m_off.Gpusim.Metrics.kernel_launches;
  Alcotest.(check int) "no traffic when false" 0
    (Gpusim.Metrics.total_bytes m_off)

let test_if_on_update () =
  let src cond =
    Fmt.str
      "int main() { int n = 8; int c = %d; float a[n];\nfor (int i = 0; i \
       < n; i++) { a[i] = 1.0; }\n#pragma acc kernels loop\nfor (int i = \
       0; i < n; i++) { a[i] = 2.0; }\n#pragma acc update host(a) \
       if(c)\nreturn 0; }"
      cond
  in
  let count_d2h cond =
    (Accrt.Interp.metrics (run (src cond))).Gpusim.Metrics.transfers_d2h
  in
  (* implicit copies also move a back; the update adds one when enabled *)
  Alcotest.(check int) "guarded update runs" (count_d2h 0 + 1) (count_d2h 1)

let test_if_on_data () =
  let src cond =
    Fmt.str
      "int main() { int n = 8; int c = %d; float a[n];\nfor (int i = 0; i \
       < n; i++) { a[i] = 1.0; }\n#pragma acc data copyin(a) \
       if(c)\n{\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { \
       a[i] = a[i] * 3.0; }\n}\nfloat cs = 0.0;\nfor (int i = 0; i < n; \
       i++) { cs = cs + a[i]; }\nreturn 0; }"
      cond
  in
  (* correct results whichever way the condition goes *)
  Alcotest.(check (float 0.)) "cond true" 24.0 (out_f (run (src 1)) "cs");
  Alcotest.(check (float 0.)) "cond false" 24.0 (out_f (run (src 0)) "cs")

(* ------------------------ launch dimensions ------------------------ *)

let test_launch_dimensions () =
  let src dims =
    Fmt.str
      "int main() { int n = 4096; float a[n];\nfor (int i = 0; i < n; i++) \
       { a[i] = 1.0; }\n#pragma acc kernels loop %s\nfor (int i = 0; i < \
       n; i++) { a[i] = a[i] * 2.0; }\nreturn 0; }"
      dims
  in
  (* synchronous kernel time is charged to the Async-Wait category *)
  let ktime dims =
    Gpusim.Metrics.time_of
      (Accrt.Interp.metrics (run (src dims)))
      Gpusim.Metrics.Async_wait
  in
  let narrow = ktime "num_gangs(2) num_workers(2)" in
  let wide = ktime "num_gangs(64) num_workers(8)" in
  let default = ktime "gang worker" in
  Alcotest.(check bool) "narrow launch is slower" true (narrow > 2. *. wide);
  Alcotest.(check bool) "wide matches device default" true
    (Float.abs (wide -. default) /. default < 0.25)

(* ---------------------------- declare ----------------------------- *)

let test_declare () =
  let src =
    "float g[16];\nint main() {\nfor (int i = 0; i < 16; i++) { g[i] = \
     1.0; }\n#pragma acc declare copyin(g)\n#pragma acc kernels loop\nfor \
     (int i = 0; i < 16; i++) { g[i] = g[i] + 1.0; }\n#pragma acc update \
     host(g)\nfloat cs = 0.0;\nfor (int i = 0; i < 16; i++) { cs = cs + \
     g[i]; }\nreturn 0; }"
  in
  Alcotest.(check (float 0.)) "declare keeps g device-resident" 32.0
    (out_f (run src) "cs")

(* ---------------------------- timeline ---------------------------- *)

let test_timeline () =
  let src =
    "int main() { int n = 64; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\n#pragma acc kernels loop async(1)\nfor (int i = 0; i < \
     n; i++) { a[i] = a[i] * 2.0; }\n#pragma acc wait(1)\nreturn 0; }"
  in
  let o = run ~trace:true src in
  let tl = o.Accrt.Interp.device.Gpusim.Device.timeline in
  Alcotest.(check bool) "events recorded" true (Gpusim.Timeline.count tl > 3);
  let evs = Gpusim.Timeline.events tl in
  (* kernels carry their source-level name; async ops carry their stream *)
  Alcotest.(check bool) "kernel labelled" true
    (List.exists
       (fun e ->
         match e.Gpusim.Timeline.ev_kind with
         | Gpusim.Timeline.Ev_kernel { name = "main_kernel0"; _ } -> true
         | _ -> false)
       evs);
  Alcotest.(check bool) "stream attributed" true
    (List.exists (fun e -> e.Gpusim.Timeline.ev_stream = Some 1) evs);
  (* events are timestamped within the simulated run and ordered *)
  List.iter
    (fun e ->
      Alcotest.(check bool) "nonnegative times" true
        (e.Gpusim.Timeline.ev_start >= 0.0
        && e.Gpusim.Timeline.ev_duration >= 0.0))
    evs;
  (* chrome-trace JSON is well-formed enough to be bracketed and quoted *)
  let json = Obs.Pjson.to_string (Obs.Chrome.of_timeline tl) in
  Alcotest.(check bool) "json brackets" true
    (String.length json > 2 && json.[0] = '[');
  Alcotest.(check bool) "summary has kernels" true
    (List.mem_assoc "kernel" (Gpusim.Timeline.summary tl));
  (* disabled timelines record nothing *)
  let o2 = run ~trace:false src in
  Alcotest.(check int) "disabled timeline empty" 0
    (Gpusim.Timeline.count o2.Accrt.Interp.device.Gpusim.Device.timeline)

(* ---------------------- environment config ------------------------ *)

let test_env_config () =
  Unix.putenv "OPENARC_VERIFICATION" "complement=1,kernels=k7";
  let c = Openarc_core.Vconfig.from_env () in
  Alcotest.(check bool) "complement from env" true
    c.Openarc_core.Vconfig.complement;
  Alcotest.(check (list string)) "kernels from env" [ "k7" ]
    c.Openarc_core.Vconfig.kernels;
  Unix.putenv "OPENARC_VERIFICATION" "";
  let d = Openarc_core.Vconfig.from_env () in
  Alcotest.(check bool) "unset -> default" true
    (d = Openarc_core.Vconfig.default)

let base_tests =
  [ Alcotest.test_case "if on compute constructs" `Quick test_if_on_compute;
    Alcotest.test_case "if on update" `Quick test_if_on_update;
    Alcotest.test_case "if on data regions" `Quick test_if_on_data;
    Alcotest.test_case "launch dimensions" `Quick test_launch_dimensions;
    Alcotest.test_case "declare directive" `Quick test_declare;
    Alcotest.test_case "timeline tracing" `Quick test_timeline;
    Alcotest.test_case "verification config from env" `Quick test_env_config ]

(* ------------------- OpenACC runtime library routines ------------------- *)

let test_acc_routines () =
  let src =
    "int main() { int n = 4096; float a[n]; int ndev = \
     acc_get_num_devices(4);\nacc_init(4);\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\nint done_before = 0;\nint done_after = 0;\n#pragma acc \
     data copy(a)\n{\n#pragma acc kernels loop async(1)\nfor (int i = 0; i \
     < n; i++) { a[i] = a[i] * 2.0; }\ndone_before = \
     acc_async_test(1);\nacc_async_wait(1);\ndone_after = \
     acc_async_test(1);\n}\nacc_shutdown(4);\nreturn 0; }"
  in
  let o = run src in
  let geti name = Accrt.Value.to_int (Accrt.Interp.host_scalar o name) in
  Alcotest.(check int) "one simulated device" 1 (geti "ndev");
  Alcotest.(check int) "stream busy before wait" 0 (geti "done_before");
  Alcotest.(check int) "stream drained after wait" 1 (geti "done_after");
  (* acc_async_wait really synchronizes: the wait time is accounted *)
  let m = Accrt.Interp.metrics o in
  Alcotest.(check bool) "wait accounted" true
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Async_wait > 0.0)

let test_acc_routines_reference () =
  (* The sequential reference executes the same program with host-only
     semantics: async work is already done. *)
  let src =
    "int main() { int t = acc_get_device_type();\nint done_now = \
     acc_async_test_all();\nint on_host = acc_on_device(2);\nreturn 0; }"
  in
  let ctx = Accrt.Eval.run_reference (Minic.Parser.parse_string src) in
  let geti name =
    Accrt.Value.to_int (Accrt.Value.get_scalar ctx.Accrt.Eval.env name)
  in
  Alcotest.(check int) "host device type" 2 (geti "t");
  Alcotest.(check int) "everything done" 1 (geti "done_now");
  Alcotest.(check int) "on host" 1 (geti "on_host")

let test_acc_device_selection () =
  let src =
    "int main() { acc_set_device_type(4);\nacc_set_device_num(0, 4);\nint \
     t = acc_get_device_type();\nint num = acc_get_device_num(4);\nreturn \
     0; }"
  in
  let o = run src in
  let geti name = Accrt.Value.to_int (Accrt.Interp.host_scalar o name) in
  Alcotest.(check int) "device type set" 4 (geti "t");
  Alcotest.(check int) "device num" 0 (geti "num")

let more_tests =
  [ Alcotest.test_case "acc_* routines on the device" `Quick
      test_acc_routines;
    Alcotest.test_case "acc_* routines in reference runs" `Quick
      test_acc_routines_reference;
    Alcotest.test_case "acc_* device selection" `Quick
      test_acc_device_selection ]

let tests = base_tests @ more_tests
