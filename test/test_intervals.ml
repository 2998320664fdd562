(* Interval sets (fine-grained coherence substrate) and the fine coherence
   mode itself, including the partial-update false negative that coarse
   tracking cannot catch. *)

open Codegen.Tprog

let iv = Alcotest.testable Accrt.Intervals.pp Accrt.Intervals.equal

let test_basic_ops () =
  let t = Accrt.Intervals.of_range 0 10 in
  Alcotest.(check int) "measure" 10 (Accrt.Intervals.measure t);
  let t = Accrt.Intervals.subtract t ~lo:3 ~hi:6 in
  Alcotest.check iv "hole" [ (0, 3); (6, 10) ] t;
  Alcotest.(check bool) "intersects left" true
    (Accrt.Intervals.intersects t ~lo:2 ~hi:4);
  Alcotest.(check bool) "hole is free" false
    (Accrt.Intervals.intersects t ~lo:3 ~hi:6);
  let t = Accrt.Intervals.add t ~lo:4 ~hi:5 in
  Alcotest.check iv "island" [ (0, 3); (4, 5); (6, 10) ] t;
  Alcotest.(check int) "pieces" 3 (Accrt.Intervals.pieces t);
  let t = Accrt.Intervals.add t ~lo:2 ~hi:7 in
  Alcotest.check iv "coalesced" [ (0, 10) ] t;
  Alcotest.(check bool) "covers" true (Accrt.Intervals.covers t ~lo:0 ~hi:10);
  Alcotest.(check bool) "mem" true (Accrt.Intervals.mem t 9);
  Alcotest.check iv "clip" [ (2, 5) ]
    (Accrt.Intervals.clip t ~lo:2 ~hi:5)

let test_degenerate () =
  Alcotest.check iv "empty range" [] (Accrt.Intervals.of_range 5 5);
  Alcotest.check iv "inverted range" [] (Accrt.Intervals.of_range 7 3);
  Alcotest.check iv "subtract from empty" []
    (Accrt.Intervals.subtract Accrt.Intervals.empty ~lo:0 ~hi:4);
  Alcotest.(check bool) "empty covers nothing... vacuously" true
    (Accrt.Intervals.covers Accrt.Intervals.empty ~lo:3 ~hi:3)

(* adjacency coalesces *)
let test_adjacent_merge () =
  let t = Accrt.Intervals.add (Accrt.Intervals.of_range 0 5) ~lo:5 ~hi:9 in
  Alcotest.check iv "adjacent merged" [ (0, 9) ] t

(* Properties over random edit sequences: membership model vs intervals. *)
let intervals_model =
  QCheck.Test.make ~count:300 ~name:"interval set matches boolean model"
    (QCheck.make
       QCheck.Gen.(
         list_size (int_bound 20)
           (triple (oneofl [ `Add; `Sub ]) (int_bound 31) (int_bound 31))))
    (fun ops ->
      let model = Array.make 32 false in
      let t = ref Accrt.Intervals.empty in
      List.iter
        (fun (op, a, b) ->
          let lo = min a b and hi = max a b in
          match op with
          | `Add ->
              t := Accrt.Intervals.add !t ~lo ~hi;
              for i = lo to hi - 1 do model.(i) <- true done
          | `Sub ->
              t := Accrt.Intervals.subtract !t ~lo ~hi;
              for i = lo to hi - 1 do model.(i) <- false done)
        ops;
      let ok = ref true in
      Array.iteri
        (fun i v -> if Accrt.Intervals.mem !t i <> v then ok := false)
        model;
      (* canonical form: sorted, disjoint, coalesced *)
      let rec canonical = function
        | (a1, b1) :: ((a2, _) :: _ as rest) ->
            b1 > a1 && a2 > b1 && canonical rest
        | [ (a, b) ] -> b > a
        | [] -> true
      in
      !ok && canonical !t)

(* ------------- fine-grained coherence ------------- *)

let site label =
  { Codegen.Tprog.site_id = 1; site_label = label; site_var = "v";
    site_sid = -1; site_loc = Minic.Loc.dummy }

let test_fine_partial_update_detected () =
  (* Kernel writes all of v; only v[0:4) is downloaded; the host then reads
     past the downloaded prefix. Coarse tracking is fooled by the partial
     copy; fine tracking reports the missing transfer. *)
  let scenario granularity =
    let t = Accrt.Coherence.create ~granularity () in
    Accrt.Coherence.register_len t "v" 100;
    Accrt.Coherence.check_write t "v" Gpu;
    Accrt.Coherence.on_transfer ~range:(0, 4) t "v" D2H ~site:(site "part");
    Accrt.Coherence.check_read t "v" Cpu;
    List.filter
      (fun r -> r.Accrt.Coherence.r_kind = Accrt.Coherence.Missing)
      (Accrt.Coherence.reports t)
  in
  Alcotest.(check int) "coarse misses it" 0
    (List.length (scenario Accrt.Coherence.Coarse));
  Alcotest.(check int) "fine catches it" 1
    (List.length (scenario Accrt.Coherence.Fine))

let test_fine_partial_no_false_positive () =
  (* The host reads exactly the downloaded prefix: fine mode stays silent. *)
  let t = Accrt.Coherence.create ~granularity:Accrt.Coherence.Fine () in
  Accrt.Coherence.register_len t "v" 100;
  Accrt.Coherence.check_write t "v" Gpu;
  Accrt.Coherence.on_transfer ~range:(0, 4) t "v" D2H ~site:(site "part");
  Accrt.Coherence.check_read ~range:(0, 4) t "v" Cpu;
  Alcotest.(check int) "prefix read is fine" 0
    (List.length (Accrt.Coherence.reports t))

let test_fine_redundant_subrange () =
  (* Downloading the same range twice: the second copy is redundant even
     though other parts of the array are still stale. *)
  let t = Accrt.Coherence.create ~granularity:Accrt.Coherence.Fine () in
  Accrt.Coherence.register_len t "v" 100;
  Accrt.Coherence.check_write t "v" Gpu;
  Accrt.Coherence.on_transfer ~range:(0, 10) t "v" D2H ~site:(site "d1");
  Accrt.Coherence.on_transfer ~range:(0, 10) t "v" D2H ~site:(site "d2");
  (match Accrt.Coherence.reports t with
  | [ r ] ->
      Alcotest.(check bool) "redundant" true
        (r.Accrt.Coherence.r_kind = Accrt.Coherence.Redundant);
      (match r.Accrt.Coherence.r_site with
      | Some st -> Alcotest.(check string) "second copy" "d2" st.site_label
      | None -> Alcotest.fail "site")
  | rs -> Alcotest.failf "expected one report, got %d" (List.length rs));
  (* a download of a different range is not redundant *)
  Accrt.Coherence.on_transfer ~range:(10, 10) t "v" D2H ~site:(site "d3");
  Alcotest.(check int) "disjoint range needed" 1
    (List.length (Accrt.Coherence.reports t))

let test_fine_tracking_cost () =
  let t = Accrt.Coherence.create ~granularity:Accrt.Coherence.Fine () in
  Accrt.Coherence.register_len t "v" 1000;
  Accrt.Coherence.check_write t "v" Gpu;
  for i = 0 to 9 do
    Accrt.Coherence.on_transfer ~range:(i * 20, 10) t "v" D2H
      ~site:(site "chunk")
  done;
  (* fragmented staleness costs interval work — the paper's argument for
     coarse default tracking *)
  Alcotest.(check bool) "interval ops counted" true (t.interval_ops > 10)

let test_fine_end_to_end () =
  (* Whole pipeline in fine mode: a partial update inside the loop leaves
     the host read of the full array flagged as missing. *)
  let src =
    "int main() { int n = 64; float a[n];\nfor (int i = 0; i < n; i++) { \
     a[i] = 1.0; }\n#pragma acc data copy(a)\n{\n#pragma acc kernels \
     loop\nfor (int i = 0; i < n; i++) { a[i] = a[i] * 2.0; }\n#pragma acc \
     update host(a[0:8])\nfloat probe = a[0];\na[1] = probe;\n}\nreturn 0; \
     }"
  in
  let run granularity =
    let o =
      Accrt.Interp.exec { Accrt.Interp.default with granularity }
        Accrt.Interp.detached
        (Codegen.Checkgen.instrument (Openarc_core.Compiler.compile src))
    in
    List.length
      (List.filter
         (fun r -> r.Accrt.Coherence.r_kind = Accrt.Coherence.May_missing
                   || r.Accrt.Coherence.r_kind = Accrt.Coherence.Missing)
         (Accrt.Interp.reports o))
  in
  Alcotest.(check bool) "fine reports what coarse hides" true
    (run Accrt.Coherence.Fine > run Accrt.Coherence.Coarse)

let tests =
  [ Alcotest.test_case "interval basics" `Quick test_basic_ops;
    Alcotest.test_case "degenerate intervals" `Quick test_degenerate;
    Alcotest.test_case "adjacent merge" `Quick test_adjacent_merge;
    QCheck_alcotest.to_alcotest intervals_model;
    Alcotest.test_case "fine catches partial-update staleness" `Quick
      test_fine_partial_update_detected;
    Alcotest.test_case "fine has no prefix false positive" `Quick
      test_fine_partial_no_false_positive;
    Alcotest.test_case "fine subrange redundancy" `Quick
      test_fine_redundant_subrange;
    Alcotest.test_case "fine tracking cost counted" `Quick
      test_fine_tracking_cost;
    Alcotest.test_case "fine end-to-end" `Quick test_fine_end_to_end ]
