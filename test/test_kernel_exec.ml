(* Kernel-executor internals: reduction identities and tree combination,
   plus direct execution checks through small translated programs. *)

open Minic.Ast
open Accrt.Value

let scalar = Alcotest.testable
    (fun ppf v -> Fmt.pf ppf "%g" (Accrt.Value.to_float v))
    (fun a b -> Accrt.Value.to_float a = Accrt.Value.to_float b)

let test_identities () =
  Alcotest.check scalar "sum int" (Int 0)
    (Accrt.Kernel_exec.identity Rsum (Int 5));
  Alcotest.check scalar "sum float" (Flt 0.0)
    (Accrt.Kernel_exec.identity Rsum (Flt 5.0));
  Alcotest.check scalar "prod" (Flt 1.0)
    (Accrt.Kernel_exec.identity Rprod (Flt 2.0));
  Alcotest.(check bool) "max identity is -inf" true
    (Accrt.Kernel_exec.identity Rmax (Flt 0.0) = Flt Float.neg_infinity);
  Alcotest.(check bool) "min identity is +inf" true
    (Accrt.Kernel_exec.identity Rmin (Flt 0.0) = Flt Float.infinity);
  Alcotest.check scalar "land" (Int 1)
    (Accrt.Kernel_exec.identity Rland (Int 0));
  Alcotest.check scalar "lor" (Int 0)
    (Accrt.Kernel_exec.identity Rlor (Int 1))

let test_combine () =
  Alcotest.check scalar "sum" (Flt 3.5)
    (Accrt.Kernel_exec.combine Rsum (Flt 1.5) (Flt 2.0));
  Alcotest.check scalar "prod int" (Int 6)
    (Accrt.Kernel_exec.combine Rprod (Int 2) (Int 3));
  Alcotest.check scalar "max" (Flt 2.0)
    (Accrt.Kernel_exec.combine Rmax (Flt 1.5) (Flt 2.0));
  Alcotest.check scalar "min int" (Int 1)
    (Accrt.Kernel_exec.combine Rmin (Int 4) (Int 1));
  Alcotest.check scalar "land" (Int 0)
    (Accrt.Kernel_exec.combine Rland (Int 1) (Int 0));
  Alcotest.check scalar "lor" (Int 1)
    (Accrt.Kernel_exec.combine Rlor (Int 0) (Int 1))

let test_tree_reduce () =
  (match Accrt.Kernel_exec.tree_reduce Rsum [] with
  | None -> ()
  | Some _ -> Alcotest.fail "empty -> None");
  (match Accrt.Kernel_exec.tree_reduce Rsum [ Int 7 ] with
  | Some (Int 7) -> ()
  | _ -> Alcotest.fail "singleton");
  (* tree combination computes the same total as a left fold for ints *)
  let parts = List.init 13 (fun i -> Int (i + 1)) in
  (match Accrt.Kernel_exec.tree_reduce Rsum parts with
  | Some (Int 91) -> ()
  | _ -> Alcotest.fail "sum 1..13");
  match Accrt.Kernel_exec.tree_reduce Rmax (List.map (fun i -> Int i) [ 3; 9; 1; 7 ]) with
  | Some (Int 9) -> ()
  | _ -> Alcotest.fail "max"

(* Tree order genuinely differs from sequential order for floats. *)
let tree_vs_sequential =
  QCheck.Test.make ~count:200 ~name:"float tree-sum within 1e-9 of fold"
    QCheck.(list_of_size (QCheck.Gen.int_range 1 64)
              (float_range 0.0001 1000.))
    (fun xs ->
      let seq = List.fold_left ( +. ) 0.0 xs in
      match
        Accrt.Kernel_exec.tree_reduce Rsum (List.map (fun f -> Flt f) xs)
      with
      | Some v ->
          Float.abs (Accrt.Value.to_float v -. seq)
          <= 1e-9 *. Float.max 1.0 (Float.abs seq)
      | None -> false)

let run ?(engine = Accrt.Interp.default.engine)
    ?(devices = Accrt.Interp.default.devices) src =
  Accrt.Interp.exec
    { Accrt.Interp.default with engine; devices }
    Accrt.Interp.detached
    (Openarc_core.Compiler.compile src)

let test_zero_trip_kernel () =
  (* a loop that never runs leaves everything untouched *)
  let src =
    "int main() { int n = 8; float a[n]; float s = 5.0;\nfor (int i = 0; i \
     < n; i++) { a[i] = 1.0; }\n#pragma acc kernels loop \
     reduction(+:s)\nfor (int i = 3; i < 3; i++) { s = s + a[i]; }\nreturn \
     0; }"
  in
  let o = run src in
  Alcotest.(check (float 0.)) "reduction unchanged" 5.0
    (Accrt.Value.to_float (Accrt.Interp.host_scalar o "s"))

let test_loop_var_exit_value () =
  (* the committed loop variable matches sequential semantics *)
  let src =
    "int main() { int n = 8; int i; float a[n];\nfor (int k = 0; k < n; \
     k++) { a[k] = 1.0; }\n#pragma acc kernels loop\nfor (i = 0; i < n; i \
     = i + 2) { a[i] = 2.0; }\nreturn 0; }"
  in
  let o = run src in
  Alcotest.(check int) "i exits at 8" 8
    (Accrt.Value.to_int (Accrt.Interp.host_scalar o "i"))

let test_reduction_on_int () =
  let src =
    "int main() { int n = 100; int a[n]; int s = 0;\nfor (int i = 0; i < \
     n; i++) { a[i] = i; }\n#pragma acc kernels loop reduction(+:s)\nfor \
     (int i = 0; i < n; i++) { s = s + a[i]; }\nreturn 0; }"
  in
  let o = run src in
  Alcotest.(check int) "int reduction exact" 4950
    (Accrt.Value.to_int (Accrt.Interp.host_scalar o "s"))

let test_single_thread_kernel () =
  (* a non-loop statement inside a kernels region runs as one thread *)
  let src =
    "int main() { float a[4]; float norm = 0.0;\nfor (int i = 0; i < 4; \
     i++) { a[i] = 2.0; }\n#pragma acc kernels\n{\nnorm = a[0] + a[1] + \
     a[2] + a[3];\nfor (int i = 0; i < 4; i++) { a[i] = a[i] / norm; \
     }\n}\nreturn 0; }"
  in
  let o = run src in
  Alcotest.(check (float 0.)) "scalar kernel computed" 8.0
    (Accrt.Value.to_float (Accrt.Interp.host_scalar o "norm"));
  Alcotest.(check (float 0.)) "second kernel used it" 0.25
    (Gpusim.Buf.get_float (Accrt.Interp.host_array o "a") 0)

(* Arrays a loop header reads are kernel inputs: they are transferred,
   peer-synced and uploaded for verification like body reads.  In [lim]
   the bound lives in a host array the body never reads; in [device] a
   straight-line kernel rewrites the bound on the device first, so every
   member must step the driver against device data, and the loop
   variable's exit value comes from the runner.  Both must leave the
   sequential reference's values under both engines on 1, 2 and 4
   devices, and verify clean. *)
let header_read_programs =
  [ ( "lim",
      "int main() { int n = 8; int lim[2]; float b[n]; int i = 0; lim[0] = \
       5;\nfor (int q = 0; q < n; q++) { b[q] = 0.0; }\n#pragma acc kernels \
       loop gang worker\nfor (i = 0; i < lim[0]; i++) { b[i] = 1.0; \
       }\nreturn 0; }",
      [ "i"; "b" ] );
    ( "device",
      "int main() { int n = 8; int a[2]; float b[n]; float s = 0.0; int i = \
       0;\na[0] = 8; a[1] = 0;\nfor (int q = 0; q < n; q++) { b[q] = 0.0; \
       }\n#pragma acc data copyin(a) copy(b)\n{\n#pragma acc kernels\n{ \
       a[0] = 5; }\n#pragma acc kernels loop gang worker\nfor (i = 0; i < \
       a[0]; i++) { b[i] = 1.0; s = s + 1.0; }\n}\nreturn 0; }",
      [ "i"; "s"; "b" ] ) ]

let test_header_reads () =
  List.iter
    (fun (what, src, outputs) ->
      let prog = Minic.Parser.parse_string ~file:what src in
      let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
      let same label env =
        List.iter
          (fun v ->
            let same =
              match (Accrt.Value.lookup reference v, Accrt.Value.lookup env v)
              with
              | Some (Accrt.Value.Scalar r), Some (Accrt.Value.Scalar c) ->
                  r.Accrt.Value.v = c.Accrt.Value.v
              | Some (Accrt.Value.Array { buf = Some r; _ }),
                Some (Accrt.Value.Array { buf = Some c; _ }) ->
                  Gpusim.Buf.equal r c
              | _ -> false
            in
            Alcotest.(check bool) (Fmt.str "%s: %s as the reference" label v)
              true same)
          outputs
      in
      List.iter
        (fun engine ->
          List.iter
            (fun devices ->
              let o = run ~engine ~devices src in
              same
                (Fmt.str "%s/%s --devices %d" what
                   (Accrt.Engine.to_string engine) devices)
                o.Accrt.Interp.ctx.Accrt.Eval.env)
            [ 1; 2; 4 ];
          let v = Openarc_core.Kernel_verify.verify ~engine prog in
          Alcotest.(check int)
            (Fmt.str "%s/%s: verifies clean" what
               (Accrt.Engine.to_string engine))
            0
            (List.length (Openarc_core.Kernel_verify.detected_errors v)))
        [ Accrt.Engine.Tree; Accrt.Engine.Compiled ])
    header_read_programs

let tests =
  [ Alcotest.test_case "reduction identities" `Quick test_identities;
    Alcotest.test_case "combine" `Quick test_combine;
    Alcotest.test_case "tree reduce" `Quick test_tree_reduce;
    QCheck_alcotest.to_alcotest tree_vs_sequential;
    Alcotest.test_case "zero-trip kernel" `Quick test_zero_trip_kernel;
    Alcotest.test_case "loop var exit value" `Quick test_loop_var_exit_value;
    Alcotest.test_case "int reduction" `Quick test_reduction_on_int;
    Alcotest.test_case "single-thread kernel" `Quick
      test_single_thread_kernel;
    Alcotest.test_case "header reads are kernel inputs" `Quick
      test_header_reads ]
