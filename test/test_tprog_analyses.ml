(* Direct unit tests of the translated-program CFG and the paper's
   dataflow analyses (Algorithms 1 and 2, first-access), independent of the
   check-insertion pass that consumes them. *)

open Codegen
open Analysis

(* q is written by the kernel and never read by the host; x is read by the
   host after the kernel; s feeds the kernel from host writes. *)
let src =
  "int main() { int n = 8; float q[n]; float x[n]; float s[n];\nfor (int i \
   = 0; i < n; i++) { s[i] = 1.0; x[i] = 0.0; }\n#pragma acc kernels \
   loop\nfor (int i = 0; i < n; i++) { q[i] = s[i]; x[i] = s[i] * 2.0; \
   }\nfloat cs = 0.0;\nfor (int i = 0; i < n; i++) { cs = cs + x[i]; \
   }\nreturn 0; }"

let setup () =
  let tp = Openarc_core.Compiler.compile src in
  let cfg = Tcfg.build tp in
  let sets = Tcfg.access_sets tp cfg in
  (tp, cfg, sets)

let nodes cfg = List.init (Tcfg.size cfg) Fun.id

let launch_node cfg sets =
  match List.filter (fun i -> sets.Tcfg.is_kernel.(i)) (nodes cfg) with
  | [ n ] -> n
  | l -> Alcotest.failf "expected one kernel node, got %d" (List.length l)

let test_cfg_structure () =
  let _, cfg, sets = setup () in
  Alcotest.(check bool) "has nodes" true (Tcfg.size cfg > 8);
  (* entry 0 and exit last, every node on a path between them, and nodes
     in program order: the plan cuts the graph into regions *)
  Alcotest.(check (pair int int)) "entry first, exit last"
    (0, Tcfg.size cfg - 1)
    (cfg.Tcfg.entry, cfg.Tcfg.exit_);
  Alcotest.(check bool) "cut into regions" true
    (Dataflow.regions cfg.Tcfg.plan > 2);
  (* exactly one kernel node with the right DEF/USE *)
  let k = launch_node cfg sets in
  Alcotest.(check bool) "kernel reads s" true
    (Varset.mem "s" sets.Tcfg.kern_read.(k));
  Alcotest.(check bool) "kernel writes q and x" true
    (Varset.mem "q" sets.Tcfg.kern_write.(k)
    && Varset.mem "x" sets.Tcfg.kern_write.(k));
  (* host-only loops collapse into single Thost leaves; a loop that
     contains a kernel gets real CFG structure with a join at its header *)
  let tp2 =
    Openarc_core.Compiler.compile
      "int main() { float a[4];\nfor (int i = 0; i < 4; i++) { a[i] = 0.0; \
       }\nfor (int k = 0; k < 2; k++) {\n#pragma acc kernels loop\nfor \
       (int i = 0; i < 4; i++) { a[i] = a[i] + 1.0; }\n}\nreturn 0; }"
  in
  let cfg2 = Tcfg.build tp2 in
  let k2 = launch_node cfg2 (Tcfg.access_sets tp2 cfg2) in
  let loop = List.hd cfg2.Tcfg.loops_of.(k2) in
  let header =
    List.find
      (fun i ->
        match Tcfg.payload cfg2 i with
        | Tcfg.Ncond _ -> cfg2.Tcfg.owner.(i) = loop
        | _ -> false)
      (nodes cfg2)
  in
  (* a bit generated at the launch reaches the header it follows only
     along the loop's back edge, joined there with the entry edge *)
  let n2 = Tcfg.size cfg2 in
  let seen =
    Dataflow.solve cfg2.Tcfg.plan
      { direction = Dataflow.Forward; meet = Dataflow.Union; width = 1;
        top = Bitset.full 1;
        gen = Array.init n2 (fun i -> if i = k2 then [ 0 ] else []);
        kill = Array.make n2 []; reset = Array.make n2 false }
  in
  Alcotest.(check bool) "loop header is a join" true
    (header < k2 && Dataflow.mem_input seen header 0)

let test_deadness () =
  let tp, cfg, sets = setup () in
  let dead = Deadness.compute tp cfg sets in
  let dead_cpu = dead.Deadness.cpu and dead_gpu = dead.Deadness.gpu in
  let k = launch_node cfg sets in
  (* after the kernel: the host never touches q again -> must-dead; x is
     read by the checksum loop -> live *)
  Alcotest.(check string) "q must-dead on CPU" "must-dead"
    (Deadness.status_name (Deadness.status_after dead_cpu k "q"));
  Alcotest.(check string) "x live on CPU" "live"
    (Deadness.status_name (Deadness.status_after dead_cpu k "x"));
  (* on the GPU side, after entry nothing reads q before the kernel writes
     it -> (may-)dead at the entry node *)
  Alcotest.(check bool) "q not live on GPU at entry" true
    (Deadness.status_after dead_gpu cfg.Tcfg.entry "q" <> Deadness.Live);
  Alcotest.(check string) "s live on GPU at entry (kernel reads it)" "live"
    (Deadness.status_name
       (Deadness.status_after dead_gpu cfg.Tcfg.entry "s"))

let test_lastwrite () =
  let tp, cfg, sets = setup () in
  let last = Lastwrite.compute tp cfg sets in
  (* the init loop's writes of s are the last host writes before the kernel *)
  let writers_of v =
    List.filter
      (fun n -> Varset.mem v sets.Tcfg.host_write.(n))
      (nodes cfg)
  in
  Alcotest.(check bool) "s's init write is last" true
    (List.exists (fun n -> Lastwrite.is_last_write last n "s")
       (writers_of "s"))

let test_firstaccess () =
  let tp, cfg, sets = setup () in
  let first = Firstaccess.compute tp cfg sets in
  let first_reads_of v =
    List.filter
      (fun n -> Varset.mem v first.Firstaccess.first_read.(n))
      (nodes cfg)
  in
  (* x's host read after the kernel is a first read (the kernel resets) *)
  Alcotest.(check bool) "x has a first-read point" true
    (first_reads_of "x" <> []);
  (* s is never read by the host: no first-read anywhere *)
  Alcotest.(check (list int)) "s has no host first-read" []
    (first_reads_of "s")

let test_blind_sets_drop_alias_reads () =
  let src =
    "int main() { float a[4]; float b[4]; float *p; float *q; float *t;\np \
     = a; q = b;\nfor (int k = 0; k < 2; k++) {\n#pragma acc kernels \
     loop\nfor (int i = 0; i < 4; i++) { a[i] = 1.0; b[i] = 1.0; }\nt = p; \
     p = q; q = t;\n}\nfloat cs = p[0];\nreturn 0; }"
  in
  let tp = Openarc_core.Compiler.compile src in
  let cfg = Tcfg.build tp in
  let full = Tcfg.access_sets tp cfg in
  let blind = Tcfg.alias_blind full in
  let total sets =
    Array.fold_left (fun acc s -> acc + Varset.cardinal s) 0 sets
  in
  (* the final read via the ambiguous p is visible to the full view only *)
  Alcotest.(check bool) "blind view sees fewer host reads" true
    (total blind.Tcfg.host_read < total full.Tcfg.host_read)

let tests =
  [ Alcotest.test_case "CFG structure and access sets" `Quick
      test_cfg_structure;
    Alcotest.test_case "Algorithm 1 (deadness)" `Quick test_deadness;
    Alcotest.test_case "Algorithm 2 (last write)" `Quick test_lastwrite;
    Alcotest.test_case "first-access placement" `Quick test_firstaccess;
    Alcotest.test_case "alias-blind view drops pointer reads" `Quick
      test_blind_sets_drop_alias_reads ]
