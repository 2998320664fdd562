(* Differential profiler: exact-zero self-diffs, union semantics over
   disjoint directive sets, canonical-JSON round-trips, and the
   naive-vs-optimized JACOBI attribution the Figure-2 loop relies on. *)

let bench name = Option.get (Suite.Registry.find name)

let categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

let profile_of_source ?file src =
  let tp = Openarc_core.Compiler.compile ?file src in
  let tr = Obs.Trace.create () in
  let _o =
    Accrt.Interp.exec { Accrt.Interp.default with seed = 42 }
      { Accrt.Interp.detached with trace = Some tr }
      tp
  in
  Obs.Profile.of_trace ~categories tr

let profile_bench ?(opt = false) name =
  let b = bench name in
  let src =
    if opt then b.Suite.Bench_def.optimized else b.Suite.Bench_def.source
  in
  profile_of_source ~file:name src

let row directive cats =
  { Obs.Profile.r_directive = directive;
    r_kind = "kernel";
    r_loc = "t.c:1";
    r_cats = cats;
    r_total = List.fold_left (fun a (_, v) -> a +. v) 0.0 cats }

let mk_profile ?(counters = []) rows =
  let cats =
    List.sort_uniq compare
      (List.concat_map (fun r -> List.map fst r.Obs.Profile.r_cats) rows)
  in
  let totals =
    List.map
      (fun c ->
        ( c,
          List.fold_left
            (fun a r ->
              a
              +. Option.value ~default:0.0
                   (List.assoc_opt c r.Obs.Profile.r_cats))
            0.0 rows ))
      cats
  in
  { Obs.Profile.p_categories = cats;
    p_rows = rows;
    p_totals = totals;
    p_total = List.fold_left (fun a r -> a +. r.Obs.Profile.r_total) 0.0 rows;
    p_devices = [];
    p_counters = counters }

(* ------------------------- exact zero ------------------------------ *)

let test_self_diff_zero () =
  (* A real benchmark profile diffed against itself: every delta must be
     exactly 0. (float [=]) — no epsilon anywhere in Obs.Diff. *)
  let p = profile_bench "JACOBI" in
  let d = Obs.Diff.diff ~before:p ~after:p () in
  Alcotest.(check bool) "is_zero" true (Obs.Diff.is_zero d);
  Alcotest.(check bool) "delta literally 0." true (d.Obs.Diff.d_delta = 0.0);
  List.iter
    (fun c ->
      Alcotest.(check bool)
        (Fmt.str "category %s delta literally 0." c.Obs.Diff.cd_cat)
        true
        (c.Obs.Diff.cd_delta = 0.0))
    d.Obs.Diff.d_totals;
  List.iter
    (fun r ->
      Alcotest.(check bool)
        (Fmt.str "row %s unchanged" r.Obs.Diff.rd_directive)
        true
        (r.Obs.Diff.rd_verdict = Obs.Diff.Unchanged
        && r.Obs.Diff.rd_delta = 0.0))
    d.Obs.Diff.d_rows;
  Alcotest.(check (list string)) "no movers" []
    (List.map
       (fun r -> r.Obs.Diff.rd_directive)
       (Obs.Diff.movers d));
  (* and two runs of the same program with the same seed also diff to
     exactly zero: the simulation is deterministic *)
  let p2 = profile_bench "JACOBI" in
  Alcotest.(check bool) "same-seed rerun diffs to zero" true
    (Obs.Diff.is_zero (Obs.Diff.diff ~before:p ~after:p2 ()))

(* ------------------------- edge cases ------------------------------ *)

let empty =
  { Obs.Profile.p_categories = []; p_rows = []; p_totals = [];
    p_total = 0.0; p_devices = []; p_counters = [] }

let test_empty_profiles () =
  let d = Obs.Diff.diff ~before:empty ~after:empty () in
  Alcotest.(check bool) "empty vs empty is zero" true (Obs.Diff.is_zero d);
  Alcotest.(check int) "no rows" 0 (List.length d.Obs.Diff.d_rows);
  let p = mk_profile [ row "k0" [ ("CPU Time", 1.0) ] ] in
  let d = Obs.Diff.diff ~before:empty ~after:p () in
  Alcotest.(check bool) "not zero" false (Obs.Diff.is_zero d);
  (match d.Obs.Diff.d_rows with
  | [ r ] ->
      Alcotest.(check bool) "row appeared" true
        (r.Obs.Diff.rd_verdict = Obs.Diff.Appeared);
      Alcotest.(check (float 0.)) "delta is the whole total" 1.0
        r.Obs.Diff.rd_delta
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  let d = Obs.Diff.diff ~before:p ~after:empty () in
  (match d.Obs.Diff.d_rows with
  | [ r ] ->
      Alcotest.(check bool) "row vanished" true
        (r.Obs.Diff.rd_verdict = Obs.Diff.Vanished)
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows))

let test_disjoint_directives () =
  let b =
    mk_profile
      [ row "k0" [ ("CPU Time", 1.0) ]; row "k1" [ ("Mem Transfer", 2.0) ] ]
  in
  let a =
    mk_profile
      [ row "k2" [ ("CPU Time", 0.5) ]; row "k3" [ ("Mem Transfer", 2.5) ] ]
  in
  let d = Obs.Diff.diff ~before:b ~after:a () in
  Alcotest.(check (list string)) "union keeps before order then appeared"
    [ "k0"; "k1"; "k2"; "k3" ]
    (List.map (fun r -> r.Obs.Diff.rd_directive) d.Obs.Diff.d_rows);
  List.iter
    (fun r ->
      let expected =
        if List.mem r.Obs.Diff.rd_directive [ "k0"; "k1" ] then
          Obs.Diff.Vanished
        else Obs.Diff.Appeared
      in
      Alcotest.(check bool)
        (Fmt.str "%s verdict" r.Obs.Diff.rd_directive)
        true
        (r.Obs.Diff.rd_verdict = expected))
    d.Obs.Diff.d_rows;
  Alcotest.(check bool) "totals cancel but is_zero is false" true
    (d.Obs.Diff.d_delta = 0.0 && not (Obs.Diff.is_zero d));
  (* per-category totals still line up: CPU -0.5, Transfer +0.5 *)
  let cat c =
    (List.find (fun x -> x.Obs.Diff.cd_cat = c) d.Obs.Diff.d_totals)
      .Obs.Diff.cd_delta
  in
  Alcotest.(check (float 1e-12)) "cpu shrank" (-0.5) (cat "CPU Time");
  Alcotest.(check (float 1e-12)) "transfer grew" 0.5 (cat "Mem Transfer")

let test_zero_total_categories () =
  (* categories present but charged 0.0 on both sides stay exact zero and
     do not pollute dominant-category attribution *)
  let b =
    mk_profile
      [ row "k0" [ ("CPU Time", 1.0); ("Result-Comp", 0.0) ] ]
  in
  let a =
    mk_profile
      [ row "k0" [ ("CPU Time", 1.5); ("Result-Comp", 0.0) ] ]
  in
  let d = Obs.Diff.diff ~before:b ~after:a () in
  (match d.Obs.Diff.d_rows with
  | [ r ] ->
      Alcotest.(check (option string)) "dominant ignores zero cats"
        (Some "CPU Time") (Obs.Diff.dominant_cat r);
      Alcotest.(check bool) "regressed" true
        (r.Obs.Diff.rd_verdict = Obs.Diff.Regressed)
  | rows -> Alcotest.failf "expected 1 row, got %d" (List.length rows));
  let zero_cat =
    List.find
      (fun c -> c.Obs.Diff.cd_cat = "Result-Comp")
      d.Obs.Diff.d_totals
  in
  Alcotest.(check bool) "zero-total category delta literally 0." true
    (zero_cat.Obs.Diff.cd_delta = 0.0)

let test_counters () =
  let b = mk_profile ~counters:[ ("transfers", 10); ("bytes_h2d", 4096) ] []
  and a = mk_profile ~counters:[ ("transfers", 2); ("bytes_h2d", 512) ] [] in
  let d = Obs.Diff.diff ~before:b ~after:a () in
  Alcotest.(check bool) "counter change breaks is_zero" false
    (Obs.Diff.is_zero d);
  Alcotest.(check int) "transfers before" 10
    (let _, bv, _ =
       List.find (fun (n, _, _) -> n = "transfers") d.Obs.Diff.d_counters
     in
     bv);
  Alcotest.(check int) "bytes after" 512
    (let _, _, av =
       List.find (fun (n, _, _) -> n = "bytes_h2d") d.Obs.Diff.d_counters
     in
     av)

(* ------------------------- JSON round-trip ------------------------- *)

let test_profile_json_round_trip () =
  let p = profile_bench "EP" in
  let doc = Obs.Profile.to_json ~name:"EP" ~seed:42 p in
  (match Obs.Diff.profile_of_json doc with
  | Error e -> Alcotest.failf "round-trip parse failed: %s" e
  | Ok (p', name, seed) ->
      Alcotest.(check string) "name survives" "EP" name;
      Alcotest.(check int) "seed survives" 42 seed;
      Alcotest.(check int) "row count survives"
        (List.length p.Obs.Profile.p_rows)
        (List.length p'.Obs.Profile.p_rows);
      (* the parsed profile is the %.9f rounding of the original: parsing
         the same document twice must diff to exactly zero *)
      let p'' =
        match Obs.Diff.profile_of_json doc with
        | Ok (x, _, _) -> x
        | Error e -> Alcotest.failf "second parse failed: %s" e
      in
      Alcotest.(check bool) "parse is deterministic (exact-zero diff)" true
        (Obs.Diff.is_zero (Obs.Diff.diff ~before:p' ~after:p'' ())));
  (* non-profile schemas are rejected *)
  (match Obs.Diff.profile_of_json "{\"schema\": \"openarc.obs.session\"}" with
  | Ok _ -> Alcotest.fail "foreign schema accepted"
  | Error _ -> ());
  match Obs.Diff.profile_of_json "{ not json" with
  | Ok _ -> Alcotest.fail "garbage accepted"
  | Error _ -> ()

let test_diff_json () =
  let b = profile_bench "JACOBI" in
  let a = profile_bench ~opt:true "JACOBI" in
  let d =
    Obs.Diff.diff ~before_name:"naive" ~after_name:"opt" ~before:b ~after:a ()
  in
  let v = Obs.Pjson.parse (Obs.Diff.to_json d) in
  Alcotest.(check (option string)) "schema"
    (Some "openarc.obs.profile-diff")
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "schema" v));
  Alcotest.(check (option string)) "before name" (Some "naive")
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "before" v));
  let rows = Obs.Pjson.arr_exn (Option.get (Obs.Pjson.member "rows" v)) in
  Alcotest.(check int) "rows serialized" (List.length d.Obs.Diff.d_rows)
    (List.length rows);
  let zero =
    match Obs.Pjson.member "zero" v with Some (Obs.Pjson.Bool z) -> z
    | _ -> Alcotest.fail "zero field missing"
  in
  Alcotest.(check bool) "zero flag matches" (Obs.Diff.is_zero d) zero

(* ----------------- naive vs optimized attribution ------------------ *)

let test_jacobi_attribution () =
  let naive = profile_bench "JACOBI" in
  let opt = profile_bench ~opt:true "JACOBI" in
  let d = Obs.Diff.diff ~before:naive ~after:opt () in
  Alcotest.(check bool) "optimized is faster" true (d.Obs.Diff.d_delta < 0.0);
  (* the win is attributed to the transfer category... *)
  let xfer =
    List.find
      (fun c -> c.Obs.Diff.cd_cat = "Mem Transfer")
      d.Obs.Diff.d_totals
  in
  Alcotest.(check bool) "Mem Transfer carries the win" true
    (xfer.Obs.Diff.cd_delta < 0.0
    && Float.abs xfer.Obs.Diff.cd_delta
       > 0.9 *. Float.abs d.Obs.Diff.d_delta);
  (* ...and the top mover is a data directive whose dominant category is
     the transfer time it stopped paying *)
  (match Obs.Diff.movers d with
  | top :: _ ->
      Alcotest.(check bool) "top mover lost time" true
        (top.Obs.Diff.rd_delta < 0.0);
      Alcotest.(check (option string)) "dominant category"
        (Some "Mem Transfer") (Obs.Diff.dominant_cat top)
  | [] -> Alcotest.fail "no movers in a naive-vs-opt diff");
  (* per-iteration data directives vanished; the enclosing data region's
     directives appeared *)
  let verdict_of v = List.filter (fun r -> r.Obs.Diff.rd_verdict = v) in
  Alcotest.(check bool) "some naive transfer rows vanished" true
    (List.exists
       (fun (r : Obs.Diff.row_delta) ->
         Obs.Diff.dominant_cat r = Some "Mem Transfer")
       (verdict_of Obs.Diff.Vanished d.Obs.Diff.d_rows));
  Alcotest.(check bool) "the data region's rows appeared" true
    (verdict_of Obs.Diff.Appeared d.Obs.Diff.d_rows <> []);
  (* byte counters moved with it *)
  let _, b_h2d, a_h2d =
    List.find (fun (n, _, _) -> n = "bytes_h2d") d.Obs.Diff.d_counters
  in
  Alcotest.(check bool) "h2d bytes dropped" true (a_h2d < b_h2d)

let tests =
  [ Alcotest.test_case "self-diff exactly zero" `Quick test_self_diff_zero;
    Alcotest.test_case "empty profiles" `Quick test_empty_profiles;
    Alcotest.test_case "disjoint directive sets" `Quick
      test_disjoint_directives;
    Alcotest.test_case "zero-total categories" `Quick
      test_zero_total_categories;
    Alcotest.test_case "counters" `Quick test_counters;
    Alcotest.test_case "profile json round-trip" `Quick
      test_profile_json_round_trip;
    Alcotest.test_case "diff json export" `Quick test_diff_json;
    Alcotest.test_case "jacobi naive-vs-opt attribution" `Quick
      test_jacobi_attribution ]
