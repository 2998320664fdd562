(* Check insertion: kernel-boundary GPU checks, first-access CPU checks,
   hoisting out of loops (the Listing 3 optimization), reset placement,
   and the optimized-vs-naive check-count ablation. *)

open Codegen
open Codegen.Tprog

let instrument ?mode src =
  Checkgen.instrument ?mode (Openarc_core.Compiler.compile src)

(* Flattened (depth, tkind) list for structural assertions. *)
let flat tp =
  let acc = ref [] in
  let rec go depth s =
    acc := (depth, s.tkind) :: !acc;
    match s.tkind with
    | Tif (_, b1, b2) -> List.iter (go (depth + 1)) b1;
                         List.iter (go (depth + 1)) b2
    | Twhile (_, b) | Tblock b | Tfor (_, _, _, b) ->
        List.iter (go (depth + 1)) b
    | _ -> ()
  in
  List.iter (go 0) tp.body;
  List.rev !acc

let checks_at_depth tp d =
  List.filter_map
    (function
      | depth, Tcheck c when depth = d -> Some c
      | _ -> None)
    (flat tp)

let jacobi_listing3 =
  "int main() { int n = 16; float a[n]; float b[n];\nfor (int i = 0; i < n; \
   i++) { a[i] = 1.0; b[i] = 0.0; }\n#pragma acc data copy(a) \
   copyout(b)\n{\nfor (int k = 0; k < 3; k++) {\n#pragma acc kernels \
   loop\nfor (int i = 0; i < n; i++) { b[i] = a[i] + 1.0; }\n#pragma acc \
   kernels loop\nfor (int i = 0; i < n; i++) { a[i] = b[i]; }\n#pragma acc \
   update host(b)\n}\n}\nfor (int i = 0; i < n; i++) { a[0] = a[0] + b[i]; \
   }\nreturn 0; }"

(* GPU checks inside vs outside any loop subtree. *)
let gpu_checks_partition tp =
  let inside = ref [] and outside = ref [] in
  let rec go in_loop s =
    (match s.tkind with
    | Tcheck ((Check_read (_, Gpu) | Check_write (_, Gpu)) as c) ->
        if in_loop then inside := c :: !inside else outside := c :: !outside
    | _ -> ());
    match s.tkind with
    | Tif (_, b1, b2) -> List.iter (go in_loop) b1; List.iter (go in_loop) b2
    | Tblock b -> List.iter (go in_loop) b
    | Twhile (_, b) | Tfor (_, _, _, b) -> List.iter (go true) b
    | _ -> ()
  in
  List.iter (go false) tp.body;
  (!inside, !outside)

let test_gpu_checks_hoisted () =
  let tp = instrument jacobi_listing3 in
  (* No host access or upload of a/b inside the k-loop: all four GPU checks
     hoist out of it (paper Listing 3's improvement). *)
  let inside, outside = gpu_checks_partition tp in
  Alcotest.(check int) "hoisted gpu checks" 4 (List.length outside);
  Alcotest.(check int) "none left in loop" 0 (List.length inside)

let test_hoisting_enables_detection () =
  (* With hoisting, the deferred-copy redundancy is reported for every
     iteration after the first (Listing 4). *)
  let tp = instrument jacobi_listing3 in
  let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
  let redundant_updates =
    List.filter
      (fun r ->
        r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant
        && (match r.Accrt.Coherence.r_event with
           | Accrt.Coherence.Copy { site = s; _ } ->
               s.site_label = "update0.host(b)"
           | Accrt.Coherence.Read _ | Accrt.Coherence.Write _ -> false))
      (Accrt.Interp.reports o)
  in
  Alcotest.(check int) "iterations 2..3 flagged" 2
    (List.length redundant_updates);
  (* Naive placement re-marks the state each iteration and misses them. *)
  let tpn = instrument ~mode:Checkgen.Naive jacobi_listing3 in
  let on = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tpn in
  let naive_flags =
    List.filter
      (fun r ->
        r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant
        && (match r.Accrt.Coherence.r_event with
           | Accrt.Coherence.Copy { site = s; _ } ->
               s.site_label = "update0.host(b)"
           | Accrt.Coherence.Read _ | Accrt.Coherence.Write _ -> false))
      (Accrt.Interp.reports on)
  in
  Alcotest.(check int) "naive placement detects none" 0
    (List.length naive_flags)

let test_host_upload_blocks_hoist () =
  (* An upload of the checked array inside the loop blocks hoisting. *)
  let src =
    "int main() { int n = 8; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\n#pragma acc data create(a)\n{\nfor (int k = 0; k < 3; \
     k++) {\n#pragma acc update device(a)\n#pragma acc kernels loop\nfor \
     (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }\n#pragma acc update \
     host(a)\nfor (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; \
     }\n}\n}\nreturn 0; }"
  in
  let tp = instrument src in
  let inside, _ = gpu_checks_partition tp in
  Alcotest.(check bool) "gpu checks stay in loop" true
    (List.length inside >= 1)

let test_cpu_first_access_placement () =
  let src =
    "int main() { int n = 8; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\nfor (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; \
     }\n#pragma acc kernels loop\nfor (int i = 0; i < n; i++) { a[i] = \
     a[i] * 2.0; }\nfor (int i = 0; i < n; i++) { a[0] = a[0] + a[i]; \
     }\nreturn 0; }"
  in
  let tp = instrument src in
  let cpu_writes =
    List.filter
      (function Check_write ("a", Cpu) -> true | _ -> false)
      (checks_at_depth tp 0)
  in
  (* Each pre-kernel write loop can be the first write along the path
     where the preceding loop is zero-trip, so both carry a (hoisted)
     check; anything beyond that would be naive per-access placement. *)
  Alcotest.(check int) "cpu write checks before kernel" 2
    (List.length cpu_writes);
  let cpu_reads =
    List.filter
      (function Check_read ("a", Cpu) -> true | _ -> false)
      (checks_at_depth tp 0)
  in
  (* The read after the kernel needs its own check (kernel resets). *)
  Alcotest.(check bool) "cpu read check after kernel" true
    (List.length cpu_reads >= 1)

let test_naive_inserts_more () =
  let opt = instrument jacobi_listing3 in
  let naive = instrument ~mode:Checkgen.Naive jacobi_listing3 in
  Alcotest.(check bool) "naive inserts at least as many" true
    (Tprog.count_checks naive >= Tprog.count_checks opt)

let test_reset_after_kernel () =
  (* q is written on the GPU and never read by the host: a reset after the
     launch marks the CPU copy dead so its download is reported. *)
  let src =
    "int main() { int n = 8; float q[n]; float x[n];\nfor (int i = 0; i < \
     n; i++) { x[i] = 1.0; }\n#pragma acc kernels loop\nfor (int i = 0; i \
     < n; i++) { q[i] = x[i]; }\nfor (int i = 0; i < n; i++) { x[0] = x[0] \
     + x[i]; }\nreturn 0; }"
  in
  let tp = instrument src in
  let resets = ref [] in
  Tprog.iter tp (fun s ->
      match s.tkind with
      | Tcheck (Reset_status (v, Cpu, st)) -> resets := (v, st) :: !resets
      | _ -> ());
  Alcotest.(check bool) "reset for q's dead CPU copy" true
    (List.mem ("q", Not_stale) !resets || List.mem ("q", May_stale) !resets);
  let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
  let q_redundant =
    List.exists
      (fun r ->
        r.Accrt.Coherence.r_var = "q"
        && (r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant
           || r.Accrt.Coherence.r_kind = Accrt.Coherence.May_redundant))
      (Accrt.Interp.reports o)
  in
  Alcotest.(check bool) "q download flagged" true q_redundant

let test_check_overhead_charged () =
  let tp = instrument jacobi_listing3 in
  let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
  let m = Accrt.Interp.metrics o in
  Alcotest.(check bool) "overhead accounted" true
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Check_overhead > 0.0);
  Alcotest.(check bool) "checks executed" true
    (m.Gpusim.Metrics.checks > 0)

let base_tests =
  [ Alcotest.test_case "GPU checks hoisted" `Quick test_gpu_checks_hoisted;
    Alcotest.test_case "hoisting enables Listing-4 detection" `Quick
      test_hoisting_enables_detection;
    Alcotest.test_case "upload blocks hoist" `Quick
      test_host_upload_blocks_hoist;
    Alcotest.test_case "CPU first-access placement" `Quick
      test_cpu_first_access_placement;
    Alcotest.test_case "naive inserts more checks" `Quick
      test_naive_inserts_more;
    Alcotest.test_case "reset after kernel (dead CPU copy)" `Quick
      test_reset_after_kernel;
    Alcotest.test_case "check overhead charged" `Quick
      test_check_overhead_charged ]

(* Property: instrumentation never changes program results, whatever the
   placement mode or tracking granularity. *)
let instrumentation_transparent =
  QCheck.Test.make ~count:40
    ~name:"instrumentation and granularity preserve semantics"
    (QCheck.make
       QCheck.Gen.(
         let term = oneofl [ "a[i]"; "b[i]"; "float(i)"; "0.5"; "c" ] in
         let op = oneofl [ "+"; "*"; "-" ] in
         pair (map3 (fun t1 o t2 -> Fmt.str "%s %s %s" t1 o t2) term op term)
           (int_bound 3))
       ~print:(fun (rhs, iters) -> Fmt.str "%s / %d iters" rhs iters))
    (fun (rhs, iters) ->
      let src =
        Fmt.str
          "int main() { int n = 16; float a[n]; float b[n]; float c = \
           2.0;\nfor (int i = 0; i < n; i++) { a[i] = float(i) * 0.5; b[i] \
           = 1.0; }\nfor (int k = 0; k < %d; k++) {\n#pragma acc kernels \
           loop\nfor (int i = 0; i < n; i++) { b[i] = %s; }\n#pragma acc \
           update host(b)\n}\nreturn 0; }"
          (iters + 1) rhs
      in
      let tp = Openarc_core.Compiler.compile src in
      let run config tp = Accrt.Interp.exec config Accrt.Interp.detached tp in
      let base = run Accrt.Interp.default tp in
      let buf_of o = Accrt.Interp.host_array o "b" in
      let same o =
        snd
          (Gpusim.Buf.compare ~margin:0.0 ~reference:(buf_of base)
             (buf_of o))
        = 0
      in
      let opt = run Accrt.Interp.default (Checkgen.instrument tp) in
      let naive =
        run Accrt.Interp.default (Checkgen.instrument ~mode:Checkgen.Naive tp)
      in
      let fine =
        run
          { Accrt.Interp.default with granularity = Accrt.Coherence.Fine }
          (Checkgen.instrument tp)
      in
      same opt && same naive && same fine)

(* Property: optimized placement never reports more missing/incorrect
   errors than exist — on correct programs, none at all. *)
let no_false_errors =
  QCheck.Test.make ~count:40
    ~name:"no missing/incorrect reports on correct programs"
    (QCheck.make QCheck.Gen.(int_range 1 4) ~print:string_of_int)
    (fun iters ->
      let src =
        Fmt.str
          "int main() { int n = 8; float a[n];\nfor (int i = 0; i < n; \
           i++) { a[i] = 1.0; }\n#pragma acc data copy(a)\n{\nfor (int k = \
           0; k < %d; k++) {\n#pragma acc kernels loop\nfor (int i = 0; i \
           < n; i++) { a[i] = a[i] + 1.0; }\n#pragma acc update \
           host(a)\nfloat probe = a[0];\na[1] = probe;\n#pragma acc update \
           device(a)\n}\n}\nfloat cs = a[0];\nreturn 0; }"
          iters
      in
      let tp = Checkgen.instrument (Openarc_core.Compiler.compile src) in
      let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
      not
        (List.exists
           (fun (r : Accrt.Coherence.report) ->
             r.r_kind = Accrt.Coherence.Missing
             || r.r_kind = Accrt.Coherence.Incorrect)
           (Accrt.Interp.reports o)))

let property_tests =
  [ QCheck_alcotest.to_alcotest instrumentation_transparent;
    QCheck_alcotest.to_alcotest no_false_errors ]

(* The instrumented program of every suite build (source, hand-optimized,
   Table II fault) under both placements, kept under test/golden/ and
   rendered by [Goldens]: check placement changes no byte without a
   regenerated golden. *)
let placement_golden (b : Suite.Bench_def.t) =
  Alcotest.test_case ("placement golden " ^ b.name) `Quick (fun () ->
      List.iter
        (fun (name, render) ->
          Alcotest.(check string)
            (Fmt.str "%s matches its golden placement" name)
            (Goldens.read name) (render ()))
        (Goldens.placement_files b))

let tests =
  base_tests @ property_tests
  @ List.map placement_golden Suite.Registry.all
