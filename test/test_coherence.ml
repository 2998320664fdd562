(* Coherence state machine: transitions of check_read/check_write,
   set_status on transfers, reset_status, report kinds; a QCheck invariant
   over random event sequences. *)

open Codegen.Tprog

let site label =
  { Codegen.Tprog.site_id = 1; site_label = label; site_var = "v";
    site_sid = -1; site_loc = Minic.Loc.dummy }

let kinds t = List.map (fun r -> r.Accrt.Coherence.r_kind) (Accrt.Coherence.reports t)

let test_clean_sequence () =
  let t = Accrt.Coherence.create () in
  (* host writes v, uploads, kernel reads+writes, downloads, host reads *)
  Accrt.Coherence.check_write t "v" Cpu;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up");
  Accrt.Coherence.check_read t "v" Gpu;
  Accrt.Coherence.check_write t "v" Gpu;
  Accrt.Coherence.on_transfer t "v" D2H ~site:(site "down");
  Accrt.Coherence.check_read t "v" Cpu;
  Alcotest.(check int) "no reports" 0 (List.length (kinds t))

let test_missing () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t "v" Gpu;
  (* kernel wrote v; host reads without a download *)
  Accrt.Coherence.check_read t "v" Cpu;
  (match kinds t with
  | [ Accrt.Coherence.Missing ] -> ()
  | _ -> Alcotest.fail "expected Missing");
  (* after the (reported) read the state is reset to avoid cascades *)
  Accrt.Coherence.check_read t "v" Cpu;
  Alcotest.(check int) "no duplicate" 1 (List.length (kinds t))

let test_redundant () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t "v" Cpu;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up1");
  (* nothing staled the GPU copy: second upload is redundant *)
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up2");
  match Accrt.Coherence.reports t with
  | [ r ] ->
      Alcotest.(check bool) "kind" true
        (r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant);
      (match r.Accrt.Coherence.r_site with
      | Some s -> Alcotest.(check string) "site" "up2" s.site_label
      | None -> Alcotest.fail "site attached")
  | _ -> Alcotest.fail "expected one Redundant"

let test_incorrect () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t "v" Cpu;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up");
  Accrt.Coherence.check_write t "v" Gpu;
  (* GPU now newer; uploading the stale host copy is incorrect (and also
     redundant is NOT reported: target was stale) *)
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "bad");
  match kinds t with
  | [ Accrt.Coherence.Incorrect ] -> ()
  | _ -> Alcotest.fail "expected Incorrect"

let test_may_redundant_via_reset () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t "v" Gpu;
  (* compiler: CPU copy is may-dead after this kernel *)
  Accrt.Coherence.reset_status t "v" Cpu May_stale;
  Accrt.Coherence.on_transfer t "v" D2H ~site:(site "down");
  (match kinds t with
  | [ Accrt.Coherence.May_redundant ] -> ()
  | _ -> Alcotest.fail "expected May_redundant");
  let t2 = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t2 "v" Gpu;
  Accrt.Coherence.reset_status t2 "v" Cpu Not_stale;
  Accrt.Coherence.on_transfer t2 "v" D2H ~site:(site "down");
  match kinds t2 with
  | [ Accrt.Coherence.Redundant ] -> ()
  | _ -> Alcotest.fail "expected Redundant (must-dead)"

let test_may_missing_on_write () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t "v" Gpu;
  (* host writes the stale copy: only may-missing (may fully overwrite) *)
  Accrt.Coherence.check_write t "v" Cpu;
  match kinds t with
  | [ Accrt.Coherence.May_missing ] -> ()
  | _ -> Alcotest.fail "expected May_missing"

let test_free_stales_gpu () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.check_write t "v" Cpu;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up1");
  Accrt.Coherence.on_free t "v";
  (* after free+realloc the upload is needed again: no redundant report *)
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up2");
  Alcotest.(check int) "no report" 0 (List.length (kinds t))

let test_loop_context () =
  let t = Accrt.Coherence.create () in
  Accrt.Coherence.enter_loop t "k";
  Accrt.Coherence.next_iteration t;
  Accrt.Coherence.next_iteration t;
  Accrt.Coherence.check_write t "v" Gpu;
  Accrt.Coherence.check_read t "v" Cpu;
  (match Accrt.Coherence.reports t with
  | [ r ] ->
      Alcotest.(check bool) "loop recorded" true
        (r.Accrt.Coherence.r_loops = [ ("k", 2) ])
  | _ -> Alcotest.fail "one report");
  Accrt.Coherence.exit_loop t;
  let msg =
    Fmt.str "%a" Accrt.Coherence.pp_report
      (List.hd (Accrt.Coherence.reports t))
  in
  Alcotest.(check bool) "message mentions loop index" true
    (let needle = "enclosing loop k index = 2" in
     let n = String.length needle and m = String.length msg in
     let rec go i = i + n <= m && (String.sub msg i n = needle || go (i + 1)) in
     go 0)

(* Invariant: after any event sequence, every tracked state is one of the
   three statuses and check_read immediately after check_write on the same
   device never reports. *)
let coherence_invariant =
  QCheck.Test.make ~count:300 ~name:"read-after-local-write never reports"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 20)
           (oneofl
              [ `Cw_cpu; `Cw_gpu; `Cr_cpu; `Cr_gpu; `Up; `Down; `Free;
                `Reset_may; `Reset_not ])))
    (fun events ->
      let t = Accrt.Coherence.create () in
      List.iter
        (function
          | `Cw_cpu -> Accrt.Coherence.check_write t "v" Cpu
          | `Cw_gpu -> Accrt.Coherence.check_write t "v" Gpu
          | `Cr_cpu -> Accrt.Coherence.check_read t "v" Cpu
          | `Cr_gpu -> Accrt.Coherence.check_read t "v" Gpu
          | `Up -> Accrt.Coherence.on_transfer t "v" H2D ~site:(site "u")
          | `Down -> Accrt.Coherence.on_transfer t "v" D2H ~site:(site "d")
          | `Free -> Accrt.Coherence.on_free t "v"
          | `Reset_may -> Accrt.Coherence.reset_status t "v" Cpu May_stale
          | `Reset_not -> Accrt.Coherence.reset_status t "v" Gpu Not_stale)
        events;
      (* local write then local read: must be silent *)
      let before = List.length (Accrt.Coherence.reports t) in
      Accrt.Coherence.check_write t "v" Cpu;
      let mid = List.length (Accrt.Coherence.reports t) in
      Accrt.Coherence.check_read t "v" Cpu;
      ignore before;
      List.length (Accrt.Coherence.reports t) = mid)

(* ---------------------- per-device lattice ------------------------- *)

(* The pessimistic join: [get _ Gpu] is the worst live member's status,
   and a lost member leaves the join. *)
let test_gpu_join () =
  let t = Accrt.Coherence.create ~devices:3 () in
  Accrt.Coherence.check_write t "v" Cpu;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up");
  Alcotest.(check bool) "all fresh after broadcast" true
    (Accrt.Coherence.get t "v" Gpu = Not_stale);
  Accrt.Coherence.set_gpu t "v" 1 May_stale;
  Alcotest.(check bool) "join is may-stale" true
    (Accrt.Coherence.get t "v" Gpu = May_stale);
  Accrt.Coherence.set_gpu t "v" 2 Stale;
  Alcotest.(check bool) "join is stale" true
    (Accrt.Coherence.get t "v" Gpu = Stale);
  (* members leave the join as they drop off the bus *)
  Accrt.Coherence.on_device_lost t 2;
  Alcotest.(check bool) "lost member out of the join" true
    (Accrt.Coherence.get t "v" Gpu = May_stale);
  Accrt.Coherence.on_device_lost t 1;
  Alcotest.(check bool) "only the primary left" true
    (Accrt.Coherence.get t "v" Gpu = Not_stale);
  (* a kernel commit on a subset refreshes it and stales the others *)
  let t2 = Accrt.Coherence.create ~devices:2 () in
  Accrt.Coherence.check_write t2 "v" Cpu;
  Accrt.Coherence.on_transfer t2 "v" H2D ~site:(site "up");
  Accrt.Coherence.note_kernel_write t2 "v" ~devs:[ 0 ];
  Alcotest.(check bool) "writer fresh" true
    (Accrt.Coherence.gpu_status t2 "v" 0 = Not_stale);
  Alcotest.(check bool) "bystander stale" true
    (Accrt.Coherence.gpu_status t2 "v" 1 = Stale);
  Accrt.Coherence.note_gpu_fresh t2 "v" ~devs:[ 1 ];
  Alcotest.(check bool) "peer sync refreshes" true
    (Accrt.Coherence.gpu_status t2 "v" 1 = Not_stale)

(* N = 1 join property: a one-member lattice is the paper's single-device
   automaton — same statuses, same verdicts, for any event sequence. *)
let single_device_join_identity =
  QCheck.Test.make ~count:300
    ~name:"coherence devices:1 == single-device lattice"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 20)
           (oneofl
              [ `Cw_cpu; `Cw_gpu; `Cr_cpu; `Cr_gpu; `Up; `Down; `Free;
                `Reset_may; `Reset_not; `Kwrite; `Gfresh ])))
    (fun events ->
      let t1 = Accrt.Coherence.create ~devices:1 () in
      let t0 = Accrt.Coherence.create () in
      let step t = function
        | `Cw_cpu -> Accrt.Coherence.check_write t "v" Cpu
        | `Cw_gpu -> Accrt.Coherence.check_write t "v" Gpu
        | `Cr_cpu -> Accrt.Coherence.check_read t "v" Cpu
        | `Cr_gpu -> Accrt.Coherence.check_read t "v" Gpu
        | `Up -> Accrt.Coherence.on_transfer t "v" H2D ~site:(site "u")
        | `Down -> Accrt.Coherence.on_transfer t "v" D2H ~site:(site "d")
        | `Free -> Accrt.Coherence.on_free t "v"
        | `Reset_may -> Accrt.Coherence.reset_status t "v" Cpu May_stale
        | `Reset_not -> Accrt.Coherence.reset_status t "v" Gpu Not_stale
        | `Kwrite -> Accrt.Coherence.note_kernel_write t "v" ~devs:[ 0 ]
        | `Gfresh -> Accrt.Coherence.note_gpu_fresh t "v" ~devs:[ 0 ]
      in
      List.iter
        (fun e ->
          step t1 e;
          step t0 e;
          if Accrt.Coherence.get t1 "v" Gpu <> Accrt.Coherence.get t0 "v" Gpu
          then QCheck.Test.fail_report "GPU statuses diverged";
          if Accrt.Coherence.get t1 "v" Cpu <> Accrt.Coherence.get t0 "v" Cpu
          then QCheck.Test.fail_report "CPU statuses diverged";
          (* the join of one member is exactly that member's status *)
          if
            Accrt.Coherence.get t1 "v" Gpu
            <> Accrt.Coherence.gpu_status t1 "v" 0
          then QCheck.Test.fail_report "join of one <> member status")
        events;
      kinds t1 = kinds t0)

(* Cross-device redundancy golden: when member statuses diverge, an
   upload is judged per member and names the device whose copy was
   already current. *)
let test_cross_device_redundant () =
  let t = Accrt.Coherence.create ~devices:2 () in
  Accrt.Coherence.check_write t "v" Cpu;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up1");
  (* a uniform fresh set keeps the single-device verdict *)
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up2");
  (match Accrt.Coherence.reports t with
  | [ r ] ->
      Alcotest.(check string) "uniform set, plain verdict"
        "copying v from host to device in up2 is redundant"
        r.Accrt.Coherence.r_desc
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  (* member 1 falls behind: the re-broadcast is useful there but
     redundant on member 0 — and the report says which *)
  Accrt.Coherence.set_gpu t "v" 1 Stale;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up3");
  (match List.rev (Accrt.Coherence.reports t) with
  | r :: _ ->
      Alcotest.(check bool) "kind" true
        (r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant);
      Alcotest.(check string) "per-device verdict"
        "copying v from host to device in up3 is redundant on device 0 (its \
         copy is already current)"
        r.Accrt.Coherence.r_desc
  | [] -> Alcotest.fail "expected a report");
  Alcotest.(check int) "two reports so far" 2
    (List.length (Accrt.Coherence.reports t));
  (* after losing member 1 the set is uniform again: plain verdict *)
  Accrt.Coherence.on_device_lost t 1;
  Accrt.Coherence.on_transfer t "v" H2D ~site:(site "up4");
  match List.rev (Accrt.Coherence.reports t) with
  | r :: _ ->
      Alcotest.(check string) "survivor-only verdict"
        "copying v from host to device in up4 is redundant"
        r.Accrt.Coherence.r_desc
  | [] -> Alcotest.fail "expected a report"

(* A one-device run keeps the paper's automaton: a kernel commit moves no
   status, so a device-only buffer re-created in every trip of a loop
   (freed, hence stale, in between) shows no runtime-initiated
   transition in the audit.  A two-member run refines the commit per
   member. *)
let test_one_device_commit_unaudited () =
  let src =
    "int main() { int n = 8; float a[n]; float b[n]; float c[n];\n\
     for (int i = 0; i < n; i++) { a[i] = float(i); }\n\
     for (int t = 0; t < 2; t++) {\n\
     #pragma acc data copyin(a) create(b) copyout(c)\n\
     {\n\
     #pragma acc kernels loop\n\
     for (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }\n\
     #pragma acc kernels loop\n\
     for (int i = 0; i < n; i++) { c[i] = b[i] * 2.0; }\n\
     }\n\
     }\n\
     return 0; }"
  in
  let commits devices =
    let audit = Obs.Audit.create () in
    ignore
      (Accrt.Interp.run ~coherence:true ~devices ~audit
         (Codegen.Checkgen.instrument (Openarc_core.Compiler.compile src))
        : Accrt.Interp.outcome);
    List.length
      (List.filter
         (fun e -> e.Obs.Audit.a_op = "kernel-commit")
         (Obs.Audit.entries audit))
  in
  Alcotest.(check int) "one device: no kernel-commit transitions" 0
    (commits 1);
  Alcotest.(check bool) "two devices: commits refined per member" true
    (commits 2 > 0)

let tests =
  [ Alcotest.test_case "clean sequence" `Quick test_clean_sequence;
    Alcotest.test_case "missing transfer" `Quick test_missing;
    Alcotest.test_case "redundant transfer" `Quick test_redundant;
    Alcotest.test_case "incorrect transfer" `Quick test_incorrect;
    Alcotest.test_case "may-redundant via reset" `Quick
      test_may_redundant_via_reset;
    Alcotest.test_case "may-missing on write" `Quick test_may_missing_on_write;
    Alcotest.test_case "free stales device copy" `Quick test_free_stales_gpu;
    Alcotest.test_case "loop context in reports" `Quick test_loop_context;
    QCheck_alcotest.to_alcotest coherence_invariant;
    Alcotest.test_case "per-device join" `Quick test_gpu_join;
    QCheck_alcotest.to_alcotest single_device_join_identity;
    Alcotest.test_case "cross-device redundant" `Quick
      test_cross_device_redundant;
    Alcotest.test_case "one-device kernel commit unaudited" `Quick
      test_one_device_commit_unaudited ]
