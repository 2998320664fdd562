(* Resilient-runtime tests: injected device faults surface as typed
   errors under the [none] policy; [retry] recovers transients by
   retry / checksum re-transfer / checkpointed re-execution with every
   recovery validated against the sequential reference; [full]
   additionally degrades to CPU fallback (host mode after device loss) so
   no fault ever yields a silently wrong result.  Coherence states after
   retried transfers and re-executed kernels must match a fault-free run. *)

open Accrt

let plan spec =
  match Gpusim.Fault_plan.of_spec ~seed:42 spec with
  | Ok p -> p
  | Error e -> Alcotest.failf "bad spec %S: %s" spec e

(* Compile [src] and run it; [instrument] adds the coherence checks, which
   turn the coherence runtime on. *)
let run_src ?(instrument = false) ?(seed = Interp.default.seed) ?plan
    ?(resilience = Interp.default.resilience)
    ?(devices = Interp.default.devices) ?(schedule = Interp.default.schedule)
    src =
  let tp = Openarc_core.Compiler.compile src in
  let tp = if instrument then Codegen.Checkgen.instrument tp else tp in
  Interp.exec
    { Interp.default with seed; plan; resilience; devices; schedule }
    Interp.detached tp

let run ?instrument ?resilience ?spec ?devices ?schedule src =
  let plan = Option.map plan spec in
  run_src ?instrument ?plan ?resilience ?devices ?schedule src

let arr o name i = Gpusim.Buf.get_float (Interp.host_array o name) i

let stats (o : Interp.outcome) = o.Interp.resilience

(* One kernel: b[i] = 2 a[i] + 1. *)
let simple_src =
  "int main() { int n = 64; float a[n]; float b[n];\n\
   for (int i = 0; i < n; i++) { a[i] = float(i); }\n\
   #pragma acc data copyin(a) copyout(b)\n\
   {\n\
   #pragma acc kernels loop\n\
   for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0 + 1.0; }\n\
   }\n\
   return 0; }"

(* Two chained kernels: b = a + 1 on the device stays device-fresh when
   the device dies before the second kernel. *)
let chained_src =
  "int main() { int n = 32; float a[n]; float b[n]; float c[n];\n\
   for (int i = 0; i < n; i++) { a[i] = float(i); }\n\
   #pragma acc data copyin(a) create(b) copyout(c)\n\
   {\n\
   #pragma acc kernels loop\n\
   for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }\n\
   #pragma acc kernels loop\n\
   for (int i = 0; i < n; i++) { c[i] = b[i] * 2.0; }\n\
   }\n\
   return 0; }"

let check_simple o =
  for i = 0 to 63 do
    Alcotest.(check (float 1e-9))
      (Fmt.str "b[%d]" i)
      ((2.0 *. float_of_int i) +. 1.0)
      (arr o "b" i)
  done

let check_chained o =
  for i = 0 to 31 do
    Alcotest.(check (float 1e-9))
      (Fmt.str "c[%d]" i)
      (2.0 *. (float_of_int i +. 1.0))
      (arr o "c" i)
  done

(* ------------------------- the recovery rule ------------------------ *)

(* Every gate that catches a device fault asks [Resilience.decide]; this
   pins its table for each policy x {device-lost, each transient kind} x
   attempt 0-3, and the budget and backoff constants it counts with. *)
let test_decision_table () =
  let name = function
    | Resilience.Member_lost -> "member-lost"
    | Resilience.Reattempt -> "reattempt"
    | Resilience.Exhausted -> "exhausted"
    | Resilience.Propagate -> "propagate"
  in
  let p = Resilience.Propagate
  and m = Resilience.Member_lost
  and r = Resilience.Reattempt
  and e = Resilience.Exhausted in
  let transient =
    List.filter Gpusim.Fault_plan.transient Gpusim.Fault_plan.all_kinds
  in
  Alcotest.(check int) "seven transient kinds" 7 (List.length transient);
  List.iter
    (fun (policy, kinds, row) ->
      List.iter
        (fun kind ->
          List.iteri
            (fun attempt want ->
              Alcotest.(check string)
                (Fmt.str "%s, %s, attempt %d" (Resilience.name policy)
                   (Gpusim.Fault_plan.kind_name kind) attempt)
                (name want)
                (name (Resilience.decide policy kind ~attempt)))
            row)
        kinds)
    [ (Resilience.Off, [ Gpusim.Fault_plan.Device_lost ], [ p; p; p; p ]);
      (Resilience.Off, transient, [ p; p; p; p ]);
      (Resilience.Retry, [ Gpusim.Fault_plan.Device_lost ], [ m; m; m; m ]);
      (Resilience.Retry, transient, [ r; r; r; e ]);
      (Resilience.Full, [ Gpusim.Fault_plan.Device_lost ], [ m; m; m; m ]);
      (Resilience.Full, transient, [ r; r; r; e ]) ];
  Alcotest.(check int) "retry budget" 3 Resilience.max_retries;
  Alcotest.(check (list (float 0.0))) "backoff doubles from 1e-4 s"
    [ 1e-4; 2e-4; 4e-4 ]
    (List.map Resilience.backoff [ 0; 1; 2 ]);
  List.iter
    (fun (text, policy) ->
      Alcotest.(check string) ("--resilience " ^ text) (Resilience.name policy)
        (match Resilience.of_string text with
        | Ok p -> Resilience.name p
        | Error e -> e))
    [ ("none", Resilience.Off); ("retry", Resilience.Retry);
      ("full", Resilience.Full); ("fallback", Resilience.Full) ]

(* -------------------------- typed errors --------------------------- *)

let test_none_policy_propagates () =
  let raises spec expected_kind =
    match run ~spec simple_src with
    | _ -> Alcotest.failf "%s: expected a device fault" spec
    | exception Gpusim.Device.Device_fault f ->
        Alcotest.(check string) (spec ^ ": kind") expected_kind
          (Gpusim.Fault_plan.kind_name f.Gpusim.Device.f_kind)
  in
  raises "xfer-fail" "xfer-fail";
  raises "xfer-partial" "xfer-partial";
  raises "launch-fail" "launch-fail";
  raises "launch-timeout" "launch-timeout";
  raises "oom" "oom";
  raises "device-lost" "device-lost";
  (* ECC-detected bit flips poison the launch under [none] too *)
  raises "bitflip" "bitflip"

let test_fault_free_run_unchanged () =
  (* An armed policy without faults must not change results. *)
  let o = run ~resilience:Resilience.Retry simple_src in
  check_simple o;
  Alcotest.(check int) "no recoveries" 0 (Resilience.recoveries (stats o));
  Alcotest.(check int) "no faults" 0
    (Interp.metrics o).Gpusim.Metrics.faults_injected

(* ------------------------- retry recovery -------------------------- *)

let test_retry_transfer () =
  let o = run ~resilience:Resilience.Retry ~spec:"xfer-fail" simple_src in
  check_simple o;
  let st = stats o in
  Alcotest.(check bool) "retried" true (st.Resilience.retries >= 1);
  Alcotest.(check int) "recovered" 0 st.Resilience.unrecovered;
  Alcotest.(check bool) "recovery time charged" true
    (Gpusim.Metrics.time_of (Interp.metrics o) Gpusim.Metrics.Fault_recovery
     > 0.0)

let test_retry_partial_transfer () =
  let o = run ~resilience:Resilience.Retry ~spec:"xfer-partial:a" simple_src in
  check_simple o;
  Alcotest.(check bool) "retried" true ((stats o).Resilience.retries >= 1)

let test_checksum_retransfer () =
  (* Silent corruption: only the end-to-end checksum can see it. *)
  let o = run ~resilience:Resilience.Retry ~spec:"xfer-corrupt:a" simple_src in
  check_simple o;
  Alcotest.(check bool) "re-transferred" true
    ((stats o).Resilience.retransfers >= 1)

(* A reduction kernel that also writes an array the scrub checks. *)
let reduction_src =
  "int main() { int n = 16; float a[n]; float b[n]; float s = 0.5;\n\
   for (int i = 0; i < n; i++) { a[i] = float(i) * 0.75; }\n\
   #pragma acc kernels loop reduction(+:s)\n\
   for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; s = s + a[i]; }\n\
   return 0; }"

(* A flipped bit found by the scrub re-executes the kernel; on a device
   set the re-executed shard's reduction partials, published before the
   scrub ran, must count once. *)
let test_bitflip_reexecution () =
  let o = run ~resilience:Resilience.Retry ~spec:"bitflip:b" simple_src in
  check_simple o;
  let st = stats o in
  Alcotest.(check bool) "re-executed" true (st.Resilience.reexecs >= 1);
  Alcotest.(check bool) "recovery verified" true (st.Resilience.verified >= 1);
  List.iter
    (fun devices ->
      let what = Fmt.str "reduction --devices %d" devices in
      let clean = run ~devices reduction_src in
      let o =
        run ~resilience:Resilience.Retry ~spec:"bitflip:b" ~devices
          reduction_src
      in
      let st = stats o in
      Alcotest.(check bool) (what ^ ": re-executed") true
        (st.Resilience.reexecs >= 1);
      Alcotest.(check int) (what ^ ": recovery verified") 1
        st.Resilience.verified;
      Alcotest.(check int) (what ^ ": no CPU fallback") 0
        st.Resilience.fallbacks;
      Alcotest.(check bool) (what ^ ": reduction as fault-free") true
        (Interp.host_scalar clean "s" = Interp.host_scalar o "s"))
    [ 1; 2 ]

let test_launch_reexecution () =
  List.iter
    (fun spec ->
      let o = run ~resilience:Resilience.Retry ~spec simple_src in
      check_simple o;
      let st = stats o in
      Alcotest.(check bool) (spec ^ ": re-executed") true
        (st.Resilience.reexecs >= 1);
      Alcotest.(check bool) (spec ^ ": verified") true
        (st.Resilience.verified >= 1))
    [ "launch-fail"; "launch-timeout" ]

let test_oom_retry () =
  let o = run ~resilience:Resilience.Retry ~spec:"oom" simple_src in
  check_simple o;
  Alcotest.(check bool) "alloc retried" true ((stats o).Resilience.retries >= 1)

let test_retry_exhaustion_is_loud () =
  (* A persistent fault exhausts the budget and raises — never returns a
     wrong answer silently. *)
  match run ~resilience:Resilience.Retry ~spec:"xfer-fail:ax*" simple_src with
  | _ -> Alcotest.fail "expected Unrecovered"
  | exception Resilience.Unrecovered f ->
      Alcotest.(check string) "target" "a" f.Gpusim.Device.f_target

let test_device_lost_without_fallback () =
  match run ~resilience:Resilience.Retry ~spec:"device-lost" simple_src with
  | _ -> Alcotest.fail "expected Unrecovered"
  | exception Resilience.Unrecovered f ->
      Alcotest.(check string) "kind" "device-lost"
        (Gpusim.Fault_plan.kind_name f.Gpusim.Device.f_kind)

(* --------------------------- CPU fallback -------------------------- *)

let test_full_oom_demotes_to_host () =
  (* Allocation never succeeds: the arrays stay host-resident and every
     kernel runs as its sequential region. *)
  let o = run ~resilience:Resilience.Full ~spec:"oomx*" simple_src in
  check_simple o;
  let st = stats o in
  Alcotest.(check bool) "fell back" true (st.Resilience.fallbacks >= 1);
  Alcotest.(check int) "no unrecovered" 0 st.Resilience.unrecovered

let test_full_persistent_transfer_demotes () =
  let o = run ~resilience:Resilience.Full ~spec:"xfer-fail:ax*" simple_src in
  check_simple o;
  Alcotest.(check int) "no unrecovered" 0 (stats o).Resilience.unrecovered

(* Losing the only device is host mode, not a member drop: no survivor
   accounting, no [device-drop] action, and no failover line in the
   report. *)
let check_no_member_drop ~plan o =
  let st = stats o in
  Alcotest.(check int) "no member counted lost" 0 st.Resilience.devices_lost;
  Alcotest.(check int) "no failovers" 0 st.Resilience.failovers;
  Alcotest.(check bool) "no device-drop action" false
    (List.exists
       (fun e -> e.Resilience.l_action = "device-drop")
       (Resilience.log_entries st));
  let report =
    Fmt.str "%a"
      (Resilience.pp_report ~seed:42 ~plan ~policy:Resilience.Full
         ~metrics:(Interp.metrics o))
      st
  in
  Alcotest.(check bool) "no failover line" false
    (List.exists
       (String.starts_with ~prefix:"failover:")
       (String.split_on_char '\n' report))

let test_device_lost_host_mode () =
  (* Lost at the very first opportunity: the whole program runs in host
     mode and still produces correct outputs. *)
  let plan = plan "device-lost" in
  let o = run_src ~plan ~resilience:Resilience.Full simple_src in
  check_simple o;
  let st = stats o in
  Alcotest.(check bool) "device lost" true st.Resilience.device_lost;
  Alcotest.(check bool) "kernels fell back" true (st.Resilience.fallbacks >= 1);
  Alcotest.(check int) "no unrecovered" 0 st.Resilience.unrecovered;
  check_no_member_drop ~plan o

let test_device_lost_mid_run_restores_mirrors () =
  (* The device dies at the second kernel's launch; b's freshest copy
     lives only in device memory and must be recovered from the
     resilience mirror for the CPU fallback to see it. *)
  let plan = plan "device-lost:main_kernel1" in
  let o = run_src ~plan ~resilience:Resilience.Full chained_src in
  check_chained o;
  let st = stats o in
  Alcotest.(check bool) "device lost" true st.Resilience.device_lost;
  Alcotest.(check int) "no unrecovered" 0 st.Resilience.unrecovered;
  check_no_member_drop ~plan o

let test_acc_num_devices_after_loss () =
  (* Programs can poll device health through the standard routine. *)
  let device = Gpusim.Device.create () in
  let lost =
    Gpusim.Device.create
      ~plan:(Gpusim.Fault_plan.create [ Gpusim.Fault_plan.mk_rule Gpusim.Fault_plan.Device_lost ])
      ()
  in
  (try Gpusim.Device.alloc lost "a" ~like:(Gpusim.Buf.create_float 4)
   with Gpusim.Device.Device_fault _ -> ());
  Alcotest.(check bool) "alive" true (Gpusim.Device.alive device);
  Alcotest.(check bool) "lost" false (Gpusim.Device.alive lost)

(* ---------------------- device-set failover ------------------------ *)

(* A member dies at its shard's launch gate: the survivors re-execute the
   lost shard and the recovery verifies against the sequential
   reference — under both schedules and both recovering policies. *)
let test_failover_reexecutes_shard () =
  List.iter
    (fun (schedule, policy) ->
      let o =
        run ~resilience:policy ~spec:"device-lost:main_kernel0#1" ~devices:2
          ~schedule simple_src
      in
      check_simple o;
      let st = stats o in
      Alcotest.(check int) "one member lost" 1 st.Resilience.devices_lost;
      Alcotest.(check bool) "shard failed over" true
        (st.Resilience.failovers >= 1);
      Alcotest.(check bool) "recovery verified" true
        (st.Resilience.verified >= 1);
      Alcotest.(check int) "no unrecovered" 0 st.Resilience.unrecovered;
      Alcotest.(check bool) "failover time charged" true
        (Gpusim.Metrics.time_of (Interp.metrics o) Gpusim.Metrics.Fault_recovery
         > 0.0))
    [ (Gpusim.Device_set.Block, Resilience.Retry);
      (Gpusim.Device_set.Cyclic, Resilience.Retry);
      (Gpusim.Device_set.Block, Resilience.Full) ]

(* A secondary member dying does not break later kernels: the survivors
   keep the coherent copy and the chained program still checks out. *)
let test_failover_chained_kernels () =
  let o =
    run ~resilience:Resilience.Retry ~spec:"device-lost:main_kernel0#1"
      ~devices:2 chained_src
  in
  check_chained o;
  Alcotest.(check int) "no unrecovered" 0 (stats o).Resilience.unrecovered

(* Every member dies: [full] degrades the whole program to host mode and
   still produces correct outputs; [retry] has nowhere left to run and
   must fail loudly. *)
let test_all_members_lost () =
  let o =
    run ~resilience:Resilience.Full ~spec:"device-lost#0,device-lost#1"
      ~devices:2 simple_src
  in
  check_simple o;
  let st = stats o in
  Alcotest.(check bool) "losses recorded" true (st.Resilience.devices_lost >= 1);
  Alcotest.(check bool) "device lost" true st.Resilience.device_lost;
  Alcotest.(check bool) "fell back to host" true (st.Resilience.fallbacks >= 1);
  Alcotest.(check int) "no unrecovered" 0 st.Resilience.unrecovered;
  match
    run ~resilience:Resilience.Retry ~spec:"device-lost#0,device-lost#1"
      ~devices:2 simple_src
  with
  | _ -> Alcotest.fail "expected Unrecovered"
  | exception Resilience.Unrecovered f ->
      Alcotest.(check string) "kind" "device-lost"
        (Gpusim.Fault_plan.kind_name f.Gpusim.Device.f_kind)

(* ----------------------- Acc_api multi-device ---------------------- *)

let test_acc_api_device_set_corners () =
  let set = Gpusim.Device_set.create ~seed:3 3 in
  let st = Acc_api.create set in
  let call name args =
    match Acc_api.hook st name args with
    | Some (Value.Int n) -> n
    | Some (Value.Flt _) -> Alcotest.failf "%s returned a float" name
    | None -> Alcotest.failf "%s not handled" name
  in
  let nvidia = Acc_api.acc_device_nvidia in
  Alcotest.(check int) "three accelerators" 3
    (call "acc_get_num_devices" [ Value.Int nvidia ]);
  Alcotest.(check int) "one host" 1
    (call "acc_get_num_devices" [ Value.Int Acc_api.acc_device_host ]);
  (* selecting a member redirects [current] *)
  Alcotest.(check int) "set device 2" 0
    (call "acc_set_device_num" [ Value.Int 2; Value.Int nvidia ]);
  Alcotest.(check int) "get device num" 2
    (call "acc_get_device_num" [ Value.Int nvidia ]);
  Alcotest.(check bool) "current follows selection" true
    (Acc_api.current st == Gpusim.Device_set.device set 2);
  (* out-of-range ordinals are ignored, selection unchanged *)
  ignore (call "acc_set_device_num" [ Value.Int 7; Value.Int nvidia ]);
  ignore (call "acc_set_device_num" [ Value.Int (-1); Value.Int nvidia ]);
  Alcotest.(check int) "selection survives bad ordinals" 2
    (call "acc_get_device_num" [ Value.Int nvidia ]);
  (* a lost member drops out of the count but host stays countable *)
  let d1 = Gpusim.Device_set.device set 1 in
  d1.Gpusim.Device.plan.Gpusim.Fault_plan.lost <- true;
  Alcotest.(check int) "lost member not counted" 2
    (call "acc_get_num_devices" [ Value.Int nvidia ]);
  Alcotest.(check int) "host unaffected" 1
    (call "acc_get_num_devices" [ Value.Int Acc_api.acc_device_host ])

(* -------------------------- determinism ---------------------------- *)

let test_reports_reproducible () =
  let report src spec =
    let p = plan spec in
    let o = run_src ~plan:p ~resilience:Resilience.Full ~seed:42 src in
    Resilience.report_json ~seed:42 ~plan:p ~policy:Resilience.Full
      ~metrics:(Interp.metrics o) (stats o)
  in
  List.iter
    (fun spec ->
      Alcotest.(check string)
        (Fmt.str "same seed, byte-identical report (%s)" spec)
        (report simple_src spec) (report simple_src spec))
    [ "xfer-fail"; "bitflip:b@0.5x*"; "device-lost:main_kernel0";
      "xfer-corrupt@0.5x*,launch-fail" ]

(* ----------------- coherence-state equivalence --------------------- *)

(* After a retried transfer or a re-executed kernel, the §III-B coherence
   automaton must be exactly where a fault-free run leaves it: hooks fire
   once per logical operation, however many physical attempts recovery
   takes. *)
let coherence_fingerprint (o : Interp.outcome) =
  let states =
    Hashtbl.fold
      (fun v (s : Coherence.var_state) acc ->
        (v,
         Codegen.Tprog.status_name s.Coherence.cpu.Coherence.status,
         Codegen.Tprog.status_name s.Coherence.gpu.Coherence.status)
        :: acc)
      o.Interp.coherence.Coherence.states []
    |> List.sort compare
  in
  (states, Coherence.summarize (Interp.reports o))

let test_coherence_equivalence () =
  let specs =
    [ "xfer-fail"; "xfer-partial"; "xfer-corrupt"; "bitflip";
      "launch-fail"; "launch-timeout"; "oom";
      "xfer-failx2,launch-fail,bitflip@0.5x2" ]
  in
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      let baseline =
        run_src ~instrument:true ~seed:42 b.Suite.Bench_def.source
      in
      let want = coherence_fingerprint baseline in
      List.iter
        (fun spec ->
          let faulty =
            run_src ~instrument:true ~seed:42 ~plan:(plan spec)
              ~resilience:Resilience.Retry b.Suite.Bench_def.source
          in
          let got = coherence_fingerprint faulty in
          Alcotest.(check bool)
            (Fmt.str "%s + %s: coherence states match fault-free run"
               b.Suite.Bench_def.name spec)
            true (want = got))
        specs)
    (List.filter_map Suite.Registry.find [ "jacobi"; "hotspot"; "nw" ])

(* ------------------------ multi-shot faults ------------------------ *)

(* Two kernels over a [copyin] input and a [copy] output; [copy_input_src]
   copies the input back out too. *)
let two_kernel_src =
  "int main() {\n\
  \  int n = 64; float a[n]; float b[n]; float s = 0.0;\n\
  \  for (int i = 0; i < n; i++) { a[i] = float(i); b[i] = 0.0; }\n\
  \  #pragma acc data copyin(a) copy(b)\n\
  \  {\n\
  \    #pragma acc kernels loop\n\
  \    for (int i = 0; i < n; i++) { b[i] = a[i] * 2.0; }\n\
  \    #pragma acc kernels loop\n\
  \    for (int i = 0; i < n; i++) { b[i] = b[i] + 1.0; }\n\
  \  }\n\
  \  for (int i = 0; i < n; i++) { s = s + b[i]; }\n\
  \  return 0;\n\
   }\n"

let copy_input_src =
  Str.global_replace (Str.regexp_string "copyin(a)") "copy(a)" two_kernel_src

(* Under [full] on one device, a run with faults that fire again and again
   either ends with the sequential reference's outputs or raises
   [Unrecovered], and its report counts exactly the retries and
   re-transfers its log lists. *)
let test_multi_shot_faults () =
  let check_program ~name ~outputs src cases =
    let prog = Minic.Parser.parse_string ~file:name src in
    let tp = Openarc_core.Compiler.compile_program prog in
    let reference = (Eval.run_reference prog).Eval.env in
    List.iter
      (fun (spec, seed) ->
        let what = Fmt.str "%s, %s, seed %d" name spec seed in
        let plan =
          match Gpusim.Fault_plan.of_spec ~seed spec with
          | Ok p -> p
          | Error e -> Alcotest.failf "%s: %s" what e
        in
        match
          Interp.exec
            { Interp.default with
              seed; plan = Some plan; resilience = Resilience.Full }
            Interp.detached tp
        with
        | exception Resilience.Unrecovered _ -> ()
        | o ->
            let st = stats o in
            let logged action =
              List.length
                (List.filter
                   (fun e -> e.Resilience.l_action = action)
                   (Resilience.log_entries st))
            in
            Alcotest.(check int) (what ^ ": retries logged") st.Resilience.retries
              (logged "retry");
            Alcotest.(check int)
              (what ^ ": re-transfers logged")
              st.Resilience.retransfers (logged "re-transfer");
            Alcotest.(check bool) (what ^ ": outputs match the reference") true
              (Openarc_core.Session.outputs_match ~outputs ~reference o))
      cases
  in
  let outputs = [ "a"; "b"; "s" ] in
  (* A: the fallback's re-upload retries count in the report and show in
     the log.  B: a demotion during that re-upload keeps the CPU's
     results.  C: the re-upload is checksummed.  D: an exhausted download
     leaves no corrupted copy in the host array. *)
  check_program ~name:"two kernels" ~outputs two_kernel_src
    [ ("launch-fail:main_kernel0x4,xfer-fail:b@0.5x*", 3);
      ("launch-fail:main_kernel1x4,xfer-fail:b@0.5x*", 36);
      ("launch-fail:main_kernel0x4,xfer-corrupt:b@0.5x*", 5) ];
  check_program ~name:"copy input" ~outputs copy_input_src
    [ ("xfer-corrupt:a@0.7x*", 11) ];
  let kinds =
    [ "xfer-fail"; "xfer-partial"; "xfer-corrupt"; "launch-fail";
      "launch-timeout"; "bitflip"; "oom" ]
  in
  let cases =
    List.concat_map
      (fun k ->
        List.concat_map
          (fun spec -> List.map (fun seed -> (spec, seed)) [ 1; 2; 3 ])
          [ k ^ "@0.3x*"; k ^ "@0.6x*"; "launch-failx4," ^ k ^ "@0.5x*" ])
      kinds
  in
  List.iter
    (fun (b : Suite.Bench_def.t) ->
      check_program ~name:b.Suite.Bench_def.name
        ~outputs:b.Suite.Bench_def.outputs b.Suite.Bench_def.source cases)
    (List.filter_map Suite.Registry.find [ "jacobi"; "srad" ])

(* ------------------------- fault matrix ---------------------------- *)

let test_fault_matrix_small () =
  let subjects =
    List.filter_map
      (fun n ->
        Option.map
          (fun (b : Suite.Bench_def.t) ->
            { Openarc_core.Fault_matrix.s_name = b.Suite.Bench_def.name;
              s_source = b.Suite.Bench_def.source;
              s_outputs = b.Suite.Bench_def.outputs })
          (Suite.Registry.find n))
      [ "jacobi"; "ep" ]
  in
  let m = Openarc_core.Fault_matrix.run ~seed:42 subjects in
  Alcotest.(check bool) "every cell recovers verified-correct" true
    (Openarc_core.Fault_matrix.all_ok m);
  (* transient kinds sweep two policies, device-lost only [full] *)
  Alcotest.(check int) "cell count" (2 * ((7 * 2) + 1))
    (List.length m.Openarc_core.Fault_matrix.cells);
  (* device-loss rows: primary and last member killed at a launch gate,
     each under [retry] and [full] — every cell must fail over and verify
     the recovery, not merely complete *)
  let m2 =
    Openarc_core.Fault_matrix.run ~seed:42 ~device_counts:[ 2 ] subjects
  in
  Alcotest.(check bool) "device-loss cells recover verified-correct" true
    (Openarc_core.Fault_matrix.all_ok m2);
  let failover_cells =
    List.filter
      (fun c -> c.Openarc_core.Fault_matrix.c_devices > 1)
      m2.Openarc_core.Fault_matrix.cells
  in
  Alcotest.(check int) "2 lost ordinals x 2 policies per benchmark"
    (2 * 2 * 2)
    (List.length failover_cells);
  List.iter
    (fun c ->
      let what =
        Fmt.str "%s/%s" c.Openarc_core.Fault_matrix.c_bench
          c.Openarc_core.Fault_matrix.c_policy
      in
      Alcotest.(check bool) (what ^ ": shard failed over") true
        (c.Openarc_core.Fault_matrix.c_failovers >= 1);
      Alcotest.(check bool) (what ^ ": recovery verified") true
        (c.Openarc_core.Fault_matrix.c_verified >= 1))
    failover_cells

(* ------------------------ recovery bookkeeping ----------------------- *)

(* The ledger entries, reports and outputs of runs through every recovery
   path are pinned in test/golden/recovery.ledger (see [Goldens]); the
   checks below keep the cases reaching what the golden is there for. *)
let test_recovery_golden () =
  Alcotest.(check string) "recovery.ledger matches its golden"
    (Goldens.read "recovery.ledger") (Goldens.recovery ());
  let runs = List.map Goldens.recovery_run Goldens.recovery_cases in
  let entries (_, _, lg) = Obs.Ledger.entries lg in
  let count p l = List.length (List.filter p l) in
  let host_mode_restores ((o, _, _) as r) =
    let log = Resilience.log_entries o.Interp.resilience in
    if count (fun e -> e.Resilience.l_action = "host-mode") log = 1 then
      count (fun e -> e.Obs.Ledger.e_site = "mirror-restore") (entries r)
    else 0
  in
  Alcotest.(check bool) "one host-mode switch restores two or more mirrors"
    true
    (List.exists (fun r -> host_mode_restores r >= 2) runs);
  Alcotest.(check bool) "some transfer is hoistable" true
    (List.exists
       (fun r -> List.exists (fun e -> e.Obs.Ledger.e_hoistable) (entries r))
       runs)

let tests =
  [ Alcotest.test_case "decision table" `Quick test_decision_table;
    Alcotest.test_case "none policy propagates" `Quick
      test_none_policy_propagates;
    Alcotest.test_case "fault-free unchanged" `Quick
      test_fault_free_run_unchanged;
    Alcotest.test_case "retry transfer" `Quick test_retry_transfer;
    Alcotest.test_case "retry partial transfer" `Quick
      test_retry_partial_transfer;
    Alcotest.test_case "checksum re-transfer" `Quick test_checksum_retransfer;
    Alcotest.test_case "bitflip re-execution" `Quick test_bitflip_reexecution;
    Alcotest.test_case "launch re-execution" `Quick test_launch_reexecution;
    Alcotest.test_case "oom retry" `Quick test_oom_retry;
    Alcotest.test_case "retry exhaustion is loud" `Quick
      test_retry_exhaustion_is_loud;
    Alcotest.test_case "device lost without fallback" `Quick
      test_device_lost_without_fallback;
    Alcotest.test_case "oom demotes to host" `Quick
      test_full_oom_demotes_to_host;
    Alcotest.test_case "persistent transfer demotes" `Quick
      test_full_persistent_transfer_demotes;
    Alcotest.test_case "device lost -> host mode" `Quick
      test_device_lost_host_mode;
    Alcotest.test_case "device lost mid-run" `Quick
      test_device_lost_mid_run_restores_mirrors;
    Alcotest.test_case "acc_get_num_devices" `Quick
      test_acc_num_devices_after_loss;
    Alcotest.test_case "failover re-executes shard" `Quick
      test_failover_reexecutes_shard;
    Alcotest.test_case "failover chained kernels" `Quick
      test_failover_chained_kernels;
    Alcotest.test_case "all members lost" `Quick test_all_members_lost;
    Alcotest.test_case "acc_api device-set corners" `Quick
      test_acc_api_device_set_corners;
    Alcotest.test_case "reports reproducible" `Quick
      test_reports_reproducible;
    Alcotest.test_case "coherence equivalence" `Quick
      test_coherence_equivalence;
    Alcotest.test_case "multi-shot faults" `Quick test_multi_shot_faults;
    Alcotest.test_case "fault matrix (small)" `Quick test_fault_matrix_small;
    Alcotest.test_case "recovery bookkeeping golden" `Quick
      test_recovery_golden ]
