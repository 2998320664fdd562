(* The twelve-benchmark suite: every benchmark's unoptimized and manually
   optimized variants must (1) validate and type check, (2) produce
   reference-identical outputs on the simulated GPU, (3) match its declared
   kernel census; the suite totals must reproduce Table II's 46/16/4 and
   the fault-injection experiment its 4-active/16-latent split. *)

open Minic

let margin = 1e-6

let outputs_equal renv o outputs =
  List.for_all
    (fun name ->
      match
        (Accrt.Value.lookup renv name,
         Accrt.Value.lookup o.Accrt.Interp.ctx.Accrt.Eval.env name)
      with
      | Some (Accrt.Value.Array { buf = Some b1; _ }),
        Some (Accrt.Value.Array { buf = Some b2; _ }) ->
          snd (Gpusim.Buf.compare ~margin ~reference:b1 b2) = 0
      | Some (Accrt.Value.Scalar c1), Some (Accrt.Value.Scalar c2) ->
          let x = Accrt.Value.to_float c1.Accrt.Value.v in
          let y = Accrt.Value.to_float c2.Accrt.Value.v in
          Float.abs (x -. y) <= margin *. Float.max 1.0 (Float.abs x)
      | _ -> false)
    outputs

let check_variant (b : Suite.Bench_def.t) src =
  let prog = Parser.parse_string ~file:b.name src in
  Acc.Validate.check_program prog;
  let env = Typecheck.check prog in
  let renv = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  let tp = Codegen.Translate.translate env prog in
  let o = Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached tp in
  Alcotest.(check bool)
    (b.name ^ ": translated run matches the sequential reference") true
    (outputs_equal renv o b.outputs);
  (* instrumented execution must not change results either *)
  let oi =
    Accrt.Interp.exec Accrt.Interp.default Accrt.Interp.detached
      (Codegen.Checkgen.instrument tp)
  in
  Alcotest.(check bool) (b.name ^ ": instrumentation is transparent") true
    (outputs_equal renv oi b.outputs);
  tp

let bench_case (b : Suite.Bench_def.t) =
  Alcotest.test_case b.name `Quick (fun () ->
      let tp = check_variant b b.source in
      ignore (check_variant b b.optimized);
      (* census on the unoptimized variant *)
      let ks = Array.to_list tp.Codegen.Tprog.kernels in
      Alcotest.(check int) (b.name ^ ": kernel count") b.expected_kernels
        (List.length ks);
      Alcotest.(check int) (b.name ^ ": private kernels") b.expected_private
        (List.length
           (List.filter (fun k -> k.Codegen.Tprog.k_has_private_data) ks));
      Alcotest.(check int) (b.name ^ ": reduction kernels")
        b.expected_reduction
        (List.length
           (List.filter (fun k -> k.Codegen.Tprog.k_has_reduction) ks));
      (* the manual variant must move far fewer bytes than the default *)
      let prog = Parser.parse_string b.source in
      let popt = Parser.parse_string b.optimized in
      let _, bytes_naive = Openarc_core.Session.transfer_stats prog in
      let _, bytes_opt = Openarc_core.Session.transfer_stats popt in
      Alcotest.(check bool) (b.name ^ ": optimized moves fewer bytes") true
        (bytes_opt < bytes_naive))

let test_totals () =
  Alcotest.(check int) "46 kernels" 46 Suite.Registry.total_kernels;
  Alcotest.(check int) "16 private" 16 Suite.Registry.total_private;
  Alcotest.(check int) "4 reduction" 4 Suite.Registry.total_reduction

let test_fault_census () =
  (* Table II end-to-end on two representative benchmarks (the full-suite
     census runs in the benchmark harness). *)
  let census name =
    let b = Option.get (Suite.Registry.find name) in
    Openarc_core.Faults.census_of_program (Parser.parse_string b.source)
  in
  let ep = census "EP" in
  Alcotest.(check int) "EP active" 1 ep.Openarc_core.Faults.active_errors;
  Alcotest.(check int) "EP active detected" 1
    ep.Openarc_core.Faults.active_detected;
  Alcotest.(check int) "EP latent" 1 ep.Openarc_core.Faults.latent_errors;
  Alcotest.(check int) "EP latent detected" 0
    ep.Openarc_core.Faults.latent_detected;
  let hotspot = census "HOTSPOT" in
  Alcotest.(check int) "HOTSPOT latent" 1
    hotspot.Openarc_core.Faults.latent_errors;
  Alcotest.(check int) "HOTSPOT nothing detected" 0
    (hotspot.Openarc_core.Faults.active_detected
    + hotspot.Openarc_core.Faults.latent_detected)

let test_sessions_shape () =
  (* Table III shape on the three interesting benchmarks: convergence in
     2-4 iterations, BACKPROP 1 and LUD 3 incorrect. *)
  let run name =
    let b = Option.get (Suite.Registry.find name) in
    Openarc_core.Session.optimize ~outputs:b.outputs
      (Parser.parse_string b.source)
  in
  let backprop = run "BACKPROP" in
  Alcotest.(check bool) "BACKPROP converged" true
    backprop.Openarc_core.Session.converged;
  Alcotest.(check int) "BACKPROP incorrect = 1" 1
    backprop.Openarc_core.Session.incorrect_iterations;
  let lud = run "LUD" in
  Alcotest.(check bool) "LUD converged" true
    lud.Openarc_core.Session.converged;
  Alcotest.(check int) "LUD incorrect = 3" 3
    lud.Openarc_core.Session.incorrect_iterations;
  let jac = run "JACOBI" in
  Alcotest.(check bool) "JACOBI clean" true
    (jac.Openarc_core.Session.converged
    && jac.Openarc_core.Session.incorrect_iterations = 0
    && jac.Openarc_core.Session.iterations <= 4)

(* Per-benchmark fault-injection census: active errors must equal the
   declared reduction kernels, latent the private ones, all active caught,
   no latent visible. *)
let fault_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " fault census") `Quick (fun () ->
      let c =
        Openarc_core.Faults.census_of_program (Parser.parse_string b.source)
      in
      Alcotest.(check int) (b.name ^ ": active = reduction kernels")
        b.expected_reduction c.Openarc_core.Faults.active_errors;
      Alcotest.(check int) (b.name ^ ": latent = private kernels")
        b.expected_private c.Openarc_core.Faults.latent_errors;
      Alcotest.(check int) (b.name ^ ": all active detected")
        c.Openarc_core.Faults.active_errors
        c.Openarc_core.Faults.active_detected;
      Alcotest.(check int) (b.name ^ ": no latent detected") 0
        c.Openarc_core.Faults.latent_detected)

(* The pretty-printer round-trips every benchmark source (both variants):
   a strong regression net over the whole language surface the suite
   exercises. *)
let roundtrip_case (b : Suite.Bench_def.t) =
  Alcotest.test_case (b.name ^ " pretty round-trip") `Quick (fun () ->
      List.iter
        (fun src ->
          let p1 = Parser.parse_string src in
          let p2 = Parser.parse_string (Minic.Pretty.program_to_string p1) in
          Alcotest.(check bool) (b.name ^ ": round trip") true
            (Ast.equal_program p1 p2))
        [ b.source; b.optimized ])

let tests =
  List.map bench_case Suite.Registry.all
  @ List.map fault_case Suite.Registry.all
  @ List.map roundtrip_case Suite.Registry.all
  @ [ Alcotest.test_case "Table II census totals" `Quick test_totals;
      Alcotest.test_case "fault-injection census" `Quick test_fault_census;
      Alcotest.test_case "Table III session shape" `Slow test_sessions_shape ]
