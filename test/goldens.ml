(* The golden files under test/golden/: each file's name and the text the
   current code renders for it.  [gen_golden] writes them and the tests
   compare against them, so both render through this one module.

   - [<bench>.<variant>.lint]: every diagnostic of [openarc lint], for the
     source, hand-optimized and Table II fault-injection builds;
   - [<bench>.<variant>.<mode>.cu]: the instrumented program under the
     optimized and the naive check placement;
   - [jacobi.observers]: the labels an attached timeline, trace and audit
     record on an instrumented JACOBI run;
   - [recovery.ledger]: the ledger entries, fault/recovery report and
     output checksums of instrumented fault runs that reach every recovery
     path of the runtime. *)

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
  let o =
    Accrt.Interp.exec { Accrt.Interp.default with timeline = true }
      { Accrt.Interp.detached with trace = Some tr; audit = Some audit }
      tp
  in
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

(* One instrumented fault run with a ledger attached: its transfers,
   blits and hoist flags, its fault/recovery report and its outputs. *)
type recovery_case = {
  rc_name : string;  (** the program, as [openarc run] names it *)
  rc_file : string;
  rc_source : string;
  rc_outputs : string list;
  rc_spec : string;  (** a [--device-faults] spec *)
  rc_policy : Accrt.Resilience.policy;
  rc_devices : int;
}

(* A program for the paths the suite cannot reach.  No suite kernel runs
   unsharded on two devices, so none needs a peer sync: here a
   straight-line kernel writes [a] on one member, and the parallel loop
   after it syncs [a] to the other before its sharded launch.  The loop
   both writes [b], which a bit flip can hit after the launch committed
   its reduction into [s], and fills [c], created on the device and freed
   unread; a last kernel runs after that free. *)
let recovery_source =
  {|
int main() {
  int n = 64;
  float a[n];
  float b[n];
  float c[n];
  float s = 0.0;
  for (int i = 0; i < n; i++) { a[i] = float(i); b[i] = 0.0; c[i] = 0.0; }
  #pragma acc data copy(a) copy(b) create(c)
  {
    for (int t = 0; t < 3; t++) {
      #pragma acc kernels
      { a[0] = a[0] + 1.0; }
      #pragma acc kernels loop gang worker reduction(+:s)
      for (int i = 0; i < n; i++) {
        c[i] = a[i] * 2.0;
        b[i] = b[i] + c[i];
        s = s + b[i];
      }
    }
  }
  #pragma acc kernels loop gang worker copy(a)
  for (int i = 0; i < n; i++) { a[i] = a[i] + 1.0; }
  return 0;
}
|}

let recovery_cases =
  let case ?(opt = false) (b : Suite.Bench_def.t) spec policy devices =
    { rc_name =
        Fmt.str "bench:%s%s" (String.lowercase_ascii b.name)
          (if opt then ":opt" else "");
      rc_file = b.name;
      rc_source = (if opt then b.optimized else b.source);
      rc_outputs = b.outputs;
      rc_spec = spec;
      rc_policy = policy;
      rc_devices = devices }
  and own spec policy devices =
    { rc_name = "recovery.c"; rc_file = "recovery.c";
      rc_source = recovery_source; rc_outputs = [ "a"; "b"; "s" ];
      rc_spec = spec; rc_policy = policy; rc_devices = devices }
  in
  let open Accrt.Resilience in
  [ (* host mode restores the mirrors of the six device-fresh arrays *)
    case ~opt:true Suite.Cfd.bench "device-lost:main_kernel3" Full 1;
    (* spent allocations demote arrays: CPU fallbacks restore their
       checkpoints and re-upload the results *)
    case ~opt:true Suite.Backprop.bench "oomx4" Full 1;
    (* a spent download demotes a device-fresh array: its mirror is
       restored *)
    case ~opt:true Suite.Bfs.bench "xfer-fail@0.5x*" Full 1;
    (* host mode in a later iteration: [update host(frontier)] dropped
       that mirror, and in the second run so did the CPU fallback of the
       kernel writing [nextf] *)
    case ~opt:true Suite.Bfs.bench "device-lost:main_kernel0@0.5" Full 1;
    case ~opt:true Suite.Bfs.bench
      "launch-fail:main_kernel1x4,device-lost:main_kernel0@0.5" Full 1;
    (* a spent re-execution budget: the CPU fallback starts from the entry
       scalars *)
    case Suite.Ep.bench "launch-fail:main_kernel1x4" Full 1;
    (* a peer sync, then the lost member's shard fails over and the merge
       blits land on the survivor *)
    own "device-lost:main_kernel1#1" Full 2;
    (* a bit flip after the reduction committed: re-execution restores and
       validates from the entry scalars, and so does the CPU fallback once
       the budget is spent *)
    own "bitflip:b" Retry 1;
    own "bitflip:bx4" Full 1;
    (* host mode after [c] was freed: its mirror went with it *)
    own "device-lost:main_kernel2" Full 1 ]

let recovery_seed = 42

let recovery_run c =
  let tp =
    Codegen.Checkgen.instrument
      (Openarc_core.Compiler.compile ~file:c.rc_file c.rc_source)
  in
  let plan =
    match Gpusim.Fault_plan.of_spec ~seed:recovery_seed c.rc_spec with
    | Ok p -> p
    | Error e -> failwith e
  in
  let ledger = Obs.Ledger.create ~devices:c.rc_devices ~schedule:"block" in
  let o =
    Accrt.Interp.exec
      { Accrt.Interp.default with
        seed = recovery_seed; plan = Some plan; resilience = c.rc_policy;
        devices = c.rc_devices }
      { Accrt.Interp.detached with ledger = Some ledger }
      tp
  in
  (o, plan, ledger)

let recovery_text c =
  let o, plan, ledger = recovery_run c in
  let buf = Buffer.create 4096 in
  let line fmt = Fmt.kstr (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "== run %s --instrument --device-faults '%s' --resilience %s \
        --devices %d"
    c.rc_name c.rc_spec
    (Accrt.Resilience.name c.rc_policy)
    c.rc_devices;
  line "ledger";
  List.iter
    (fun (e : Obs.Ledger.entry) ->
      line "  %s %s %s dev%d %s at %s %dB%s%s" e.e_array
        (Obs.Ledger.dir_name e.e_dir)
        (Obs.Ledger.cause_name e.e_cause)
        e.e_dev e.e_site e.e_loc e.e_bytes
        (if e.e_redundant then " redundant" else "")
        (if e.e_hoistable then " hoistable" else ""))
    (Obs.Ledger.entries ledger);
  line "%a"
    (Accrt.Resilience.pp_report ~seed:recovery_seed ~plan
       ~policy:c.rc_policy ~metrics:(Accrt.Interp.metrics o))
    o.Accrt.Interp.resilience;
  line "outputs";
  List.iter
    (fun (name, binding) ->
      match binding with
      | Some (Accrt.Value.Array { buf = Some b; _ }) ->
          line "  %s checksum %Lx" name (Gpusim.Buf.checksum b)
      | Some (Accrt.Value.Scalar cell) ->
          line "  %s = %h" name (Accrt.Value.to_float cell.v)
      | Some (Accrt.Value.Array { buf = None; _ }) | None ->
          line "  %s unbound" name)
    (Accrt.Value.outputs o.Accrt.Interp.ctx.Accrt.Eval.env c.rc_outputs);
  Buffer.contents buf

let recovery () = String.concat "\n" (List.map recovery_text recovery_cases)

let recovery_files = [ ("recovery.ledger", recovery) ]

let all () =
  List.concat_map
    (fun b -> lint_files b @ placement_files b)
    Suite.Registry.all
  @ observer_files @ recovery_files

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
