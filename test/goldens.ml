(* The golden files under test/golden/: each file's name and the text the
   current code renders for it.  [gen_golden] writes them and the tests
   compare against them, so both render through this one module.

   - [<bench>.<variant>.lint]: every diagnostic of [openarc lint], for the
     source, hand-optimized and Table II fault-injection builds;
   - [<bench>.<variant>.<mode>.cu]: the instrumented program under the
     optimized and the naive check placement;
   - [jacobi.observers]: the labels an attached timeline, trace and audit
     record on an instrumented JACOBI run. *)

module Diag = Lint.Diag

(* The three builds of a suite program.  The fault build is the Table II
   experiment's: private/reduction clauses stripped, automatic recognition
   off. *)
let variants (b : Suite.Bench_def.t) =
  let compile src () = Openarc_core.Compiler.compile ~file:b.name src in
  [ ("source", compile b.source); ("opt", compile b.optimized);
    ( "fault",
      fun () ->
        Openarc_core.Compiler.compile_program
          ~opts:Codegen.Options.fault_injection
          (Openarc_core.Faults.strip_parallelism_clauses
             (Minic.Parser.parse_string ~file:b.name b.source)) ) ]

let lint_text tp =
  Diag.to_text (Diag.filter ~threshold:Diag.Info (Lint.run_tprog tp))

let modes =
  [ ("optimized", Codegen.Checkgen.Optimized);
    ("naive", Codegen.Checkgen.Naive) ]

let placement mode tp =
  Codegen.Cuda.to_string (Codegen.Checkgen.instrument ~mode tp)

let stem (b : Suite.Bench_def.t) vname =
  Fmt.str "%s.%s" (String.lowercase_ascii b.name) vname

(* Golden files of one benchmark: (file name, renderer). *)
let lint_files b =
  List.map
    (fun (vname, tp) -> (stem b vname ^ ".lint", fun () -> lint_text (tp ())))
    (variants b)

let placement_files b =
  List.concat_map
    (fun (vname, tp) ->
      List.map
        (fun (mname, mode) ->
          (Fmt.str "%s.%s.cu" (stem b vname) mname,
           fun () -> placement mode (tp ())))
        modes)
    (variants b)

(* Distinct values in first-occurrence order, each with its count. *)
let tally keys =
  let counts = Hashtbl.create 64 in
  let order =
    List.fold_left
      (fun order k ->
        match Hashtbl.find_opt counts k with
        | Some n ->
            Hashtbl.replace counts k (n + 1);
            order
        | None ->
            Hashtbl.replace counts k 1;
            k :: order)
      [] keys
  in
  List.rev_map (fun k -> (k, Hashtbl.find counts k)) order

let observers () =
  let b = Suite.Jacobi.bench in
  let tp =
    Codegen.Checkgen.instrument
      (Openarc_core.Compiler.compile ~file:b.name b.source)
  in
  let tr = Obs.Trace.create () and audit = Obs.Audit.create () in
  let o = Accrt.Interp.run ~trace:true ~obs:tr ~audit tp in
  let buf = Buffer.create 4096 in
  let section title keys =
    Buffer.add_string buf (title ^ "\n");
    List.iter
      (fun (k, n) -> Buffer.add_string buf (Fmt.str "  %s x%d\n" k n))
      (tally keys)
  in
  section "timeline labels"
    (List.map
       (fun (e : Gpusim.Timeline.event) ->
         Fmt.str "%s %s" (Gpusim.Timeline.kind_name e.ev_kind) e.ev_label)
       (Gpusim.Timeline.events o.Accrt.Interp.device.Gpusim.Device.timeline));
  section "span locs"
    (List.filter_map
       (fun (s : Obs.Trace.span) ->
         Option.map
           (Fmt.str "%s %s at %s" (Obs.Trace.kind_name s.sp_kind) s.sp_name)
           s.sp_loc)
       (Obs.Trace.spans tr));
  section "audit points"
    (List.map
       (fun (e : Obs.Audit.entry) -> Fmt.str "%s [%s]" e.a_op e.a_point)
       (Obs.Audit.entries audit));
  Buffer.contents buf

let observer_files = [ ("jacobi.observers", observers) ]

let all () =
  List.concat_map
    (fun b -> lint_files b @ placement_files b)
    Suite.Registry.all
  @ observer_files

(* A golden file's committed text: the test's cwd is _build/default/test
   under 'dune test', the project root under 'dune exec'. *)
let read name =
  let path = Filename.concat "golden" name in
  let read_file p = In_channel.with_open_bin p In_channel.input_all in
  try read_file path
  with Sys_error _ -> (
    try read_file (Filename.concat "test" path)
    with Sys_error _ ->
      Fmt.failwith "missing golden file %s: run 'dune exec test/gen_golden.exe'"
        path)
