(* Translation tests: kernel outlining, scalar classification, data-region
   lowering, implicit default-scheme transfers, sites and provenance. *)

open Codegen
open Codegen.Tprog

let compile ?opts src = Openarc_core.Compiler.compile ?opts src

let kernels tp = Array.to_list tp.kernels

let kernel_named tp name =
  match Tprog.find_kernel tp name with
  | Some k -> k
  | None -> Alcotest.failf "kernel %s not found" name

let count_kind tp pred =
  let n = ref 0 in
  Tprog.iter tp (fun s -> if pred s.tkind then incr n);
  !n

let is_xfer dir = function
  | Txfer x -> x.x_dir = dir
  | _ -> false

let test_outline_kernels_loop () =
  let tp =
    compile
      "int main() { float a[8]; float s; float t;\n#pragma acc kernels loop \
       gang worker private(t) reduction(+:s)\nfor (int i = 0; i < 8; i++) { \
       t = a[i]; s = s + t; }\nreturn 0; }"
  in
  Alcotest.(check int) "one kernel" 1 (List.length (kernels tp));
  let k = kernel_named tp "main_kernel0" in
  Alcotest.(check bool) "reads a" true
    (Analysis.Varset.mem "a" k.k_arrays_read);
  (match List.assoc_opt "t" k.k_scalars with
  | Some Sc_private -> ()
  | _ -> Alcotest.fail "t private");
  (match List.assoc_opt "s" k.k_scalars with
  | Some (Sc_reduction Minic.Ast.Rsum) -> ()
  | _ -> Alcotest.fail "s reduction");
  Alcotest.(check bool) "has private data" true k.k_has_private_data;
  Alcotest.(check bool) "has reduction" true k.k_has_reduction

let test_outline_kernels_region () =
  (* a kernels region with two loops and a scalar statement -> 3 kernels *)
  let tp =
    compile
      "int main() { float a[8]; float c = 0.0;\n#pragma acc \
       kernels\n{\nfor (int i = 0; i < 8; i++) { a[i] = 1.0; }\nc = \
       2.0;\nfor (int i = 0; i < 8; i++) { a[i] = a[i] * c; }\n}\nreturn \
       0; }"
  in
  Alcotest.(check int) "three kernels" 3 (List.length (kernels tp));
  let scalar_kernels =
    List.filter (fun k -> k.k_loop = None) (kernels tp)
  in
  Alcotest.(check int) "one single-thread kernel" 1
    (List.length scalar_kernels)

let test_auto_privatization_switch () =
  let src =
    "int main() { float a[8]; float t;\n#pragma acc kernels loop\nfor (int \
     i = 0; i < 8; i++) { t = a[i] * 2.0; a[i] = t; }\nreturn 0; }"
  in
  let k_on = List.hd (kernels (compile src)) in
  (match List.assoc_opt "t" k_on.k_scalars with
  | Some Sc_private -> ()
  | c ->
      Alcotest.failf "t should be auto-privatized, got %s"
        (match c with None -> "none" | Some _ -> "other"));
  let k_off =
    List.hd (kernels (compile ~opts:Options.fault_injection src))
  in
  match List.assoc_opt "t" k_off.k_scalars with
  | Some (Sc_raced Race_latent) -> ()
  | _ -> Alcotest.fail "t should be a latent race under fault injection"

let test_auto_reduction_switch () =
  let src =
    "int main() { float a[8]; float s = 0.0;\n#pragma acc kernels loop\nfor \
     (int i = 0; i < 8; i++) { s = s + a[i]; }\nreturn 0; }"
  in
  let k_on = List.hd (kernels (compile src)) in
  (match List.assoc_opt "s" k_on.k_scalars with
  | Some (Sc_reduction Minic.Ast.Rsum) -> ()
  | _ -> Alcotest.fail "s should be auto-recognized");
  let k_off =
    List.hd (kernels (compile ~opts:Options.fault_injection src))
  in
  match List.assoc_opt "s" k_off.k_scalars with
  | Some (Sc_raced Race_active) -> ()
  | _ -> Alcotest.fail "s should be an active race under fault injection"

let test_induction_always_private () =
  (* Loop indices declared outside stay private even under fault injection. *)
  let tp =
    compile ~opts:Options.fault_injection
      "int main() { float a[8]; int i; int j;\n#pragma acc kernels \
       loop\nfor (i = 0; i < 8; i++) { for (j = 0; j < 2; j++) { a[i] = \
       a[i] + 1.0; } }\nreturn 0; }"
  in
  let k = List.hd (kernels tp) in
  Alcotest.(check bool) "i induction" true
    (Analysis.Varset.mem "i" k.k_induction);
  Alcotest.(check bool) "j induction" true
    (Analysis.Varset.mem "j" k.k_induction);
  Alcotest.(check int) "no raced scalars" 0
    (List.length (Tprog.raced_scalars k))

let test_default_scheme () =
  let tp =
    compile
      "int main() { float a[8]; float b[8];\n#pragma acc kernels loop\nfor \
       (int i = 0; i < 8; i++) { b[i] = a[i]; }\nreturn 0; }"
  in
  (* both arrays copied in and out around the kernel *)
  Alcotest.(check int) "h2d" 2 (count_kind tp (is_xfer H2D));
  Alcotest.(check int) "d2h" 2 (count_kind tp (is_xfer D2H));
  Alcotest.(check int) "allocs" 2
    (count_kind tp (function Talloc _ -> true | _ -> false))

let test_data_region_lowering () =
  let tp =
    compile
      "int main() { float a[8]; float b[8];\n#pragma acc data copyin(a) \
       create(b)\n{\n#pragma acc kernels loop\nfor (int i = 0; i < 8; i++) \
       { b[i] = a[i]; }\n}\nreturn 0; }"
  in
  (* data region: one upload (a), no implicit copies inside *)
  Alcotest.(check int) "h2d only a" 1 (count_kind tp (is_xfer H2D));
  Alcotest.(check int) "no downloads" 0 (count_kind tp (is_xfer D2H));
  Alcotest.(check int) "frees at exit" 2
    (count_kind tp (function Tfree _ -> true | _ -> false))

let test_update_and_wait () =
  let tp =
    compile
      "int main() { float a[8];\n#pragma acc data copy(a)\n{\n#pragma acc \
       update host(a[0:4]) async(2)\n#pragma acc wait(2)\n}\nreturn 0; }"
  in
  let found = ref false in
  Tprog.iter tp (fun s ->
      match s.tkind with
      | Txfer { x_dir = D2H; x_lo = Some (Minic.Ast.Eint 0);
                x_len = Some (Minic.Ast.Eint 4);
                x_async = Some (Minic.Ast.Eint 2); _ } -> found := true
      | _ -> ());
  Alcotest.(check bool) "subarray async update" true !found;
  Alcotest.(check int) "wait lowered" 1
    (count_kind tp (function Twait (Some _) -> true | _ -> false))

let test_sites_and_provenance () =
  let tp =
    compile
      "int main() { float a[8];\n#pragma acc update device(a)\nreturn 0; }"
  in
  let sites = Tprog.xfer_sites tp in
  Alcotest.(check int) "one site" 1 (List.length sites);
  let s = List.hd sites in
  Alcotest.(check string) "update label" "update0.device(a)" s.site_label;
  Alcotest.(check bool) "site has source sid" true (s.site_sid > 0)

let test_seq_clause () =
  let tp =
    compile
      "int main() { float a[8]; float s = 0.0;\n#pragma acc kernels loop \
       seq\nfor (int i = 0; i < 8; i++) { s = s + a[i]; }\nreturn 0; }"
  in
  Alcotest.(check bool) "seq kernel" true (List.hd (kernels tp)).k_seq

let test_cuda_rendering () =
  let tp =
    compile
      "int main() { float a[4]; float t;\n#pragma acc kernels loop \
       private(t)\nfor (int i = 0; i < 4; i++) { t = a[i]; a[i] = t + 1.0; \
       }\nreturn 0; }"
  in
  let out = Cuda.to_string tp in
  let contains needle =
    let n = String.length needle and m = String.length out in
    let rec go i = i + n <= m && (String.sub out i n = needle || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "kernel signature" true
    (contains "__global__ void main_kernel0");
  Alcotest.(check bool) "private comment" true
    (contains "private (per-thread register)");
  Alcotest.(check bool) "memcpy call" true (contains "memcpyin")

(* A kernel's interface: the names it takes from the host ([k_inputs],
   the latest first occurrence first; [k_header_inputs], the header's),
   the globals its callees name, and the array roots it transfers. *)
type interface = {
  inputs : string list;
  header : string list;
  globals : string list;
  read : string list;
  written : string list;
}

let interface_cases =
  let kernel ?(setup = "") ?(after = "") ?(clauses = "") header body =
    Fmt.str
      "%sint main() { int n = 8; int m = 2; float t = 2.0; int j = 0; \
       float a[n]; float b[n]; float x[n]; float *p = x;\n#pragma acc \
       kernels loop%s\nfor (%s) { %s }\n%sreturn 0; }"
      setup clauses header body after
  in
  let loop = "int i = 0; i < n; i++" in
  let io ?(header = [ "n" ]) ?(globals = []) ?(read = []) ?(written = [ "a" ])
      inputs =
    { inputs; header; globals; read; written }
  in
  [ ("a scalar read only in the header", kernel loop "a[i] = 1.0;",
     io [ "a"; "n" ]);
    ( "a local scalar shadows a host array declared after the kernel",
      kernel loop "float u = 1.0; a[i] = u;" ~after:"float u[n];\n",
      io [ "a"; "n" ] );
    ( "a use before a declaration in the same scope",
      kernel loop "b[i] = t; float t = 1.0; a[i] = t;",
      io [ "a"; "t"; "b"; "n" ] ~written:[ "a"; "b" ] );
    ( "a host name next to a local one in a sibling block",
      kernel loop
        "if (i < 4) { float t = 1.0; a[i] = t; } else { a[i] = t; }",
      io [ "t"; "a"; "n" ] );
    ( "a declared inner loop variable",
      kernel loop "for (int j = 0; j < n; j++) { a[i] = 1.0; }",
      io [ "a"; "n" ] );
    ( "an assigned inner loop variable",
      kernel loop "for (j = 0; j < n; j++) { a[i] = 1.0; }",
      io [ "a"; "j"; "n" ] );
    ( "an assigned loop variable",
      kernel "j = 0; j < n; j++" "a[j] = 1.0;",
      io [ "a"; "n"; "j" ] ~header:[ "n"; "j" ] );
    ( "a local array's extent",
      kernel loop "float tmp[m]; tmp[0] = 1.0; a[i] = tmp[0];"
        ~clauses:" copy(a)",
      io [ "a"; "m"; "n" ] );
    ( "a host pointer",
      kernel loop "a[i] = p[i];", io [ "p"; "a"; "n" ] ~read:[ "x" ] );
    ( "a local pointer to a host array",
      kernel loop "float *q = a; q[i] = 1.0;", io [ "a"; "n" ] );
    ( "a header reading an array",
      kernel "int i = 0; i < int(x[0]); i++" "a[i] = 1.0;",
      io [ "a"; "x" ] ~header:[ "x" ] ~read:[ "x" ] );
    ( "a global read through a callee's callee",
      kernel loop "a[i] = f(1.0);"
        ~setup:
          "float scale = 2.0;\nfloat g(float y) { return y * scale; \
           }\nfloat f(float y) { return g(y); }\n",
      io [ "a"; "n" ] ~globals:[ "scale" ] ) ]

let test_interface () =
  List.iter
    (fun (what, src, expected) ->
      let k = List.hd (kernels (compile src)) in
      let names = Analysis.Varset.elements in
      let check field = Alcotest.(check (list string)) (what ^ ": " ^ field) in
      check "inputs" expected.inputs k.k_inputs;
      check "header inputs" expected.header k.k_header_inputs;
      check "callee globals" expected.globals k.k_globals;
      check "arrays read" expected.read (names k.k_arrays_read);
      check "arrays written" expected.written (names k.k_arrays_written))
    interface_cases

let tests =
  [ Alcotest.test_case "outline kernels loop" `Quick test_outline_kernels_loop;
    Alcotest.test_case "outline kernels region" `Quick
      test_outline_kernels_region;
    Alcotest.test_case "auto privatization switch" `Quick
      test_auto_privatization_switch;
    Alcotest.test_case "auto reduction switch" `Quick
      test_auto_reduction_switch;
    Alcotest.test_case "induction vars always private" `Quick
      test_induction_always_private;
    Alcotest.test_case "default scheme copies" `Quick test_default_scheme;
    Alcotest.test_case "data region lowering" `Quick test_data_region_lowering;
    Alcotest.test_case "update and wait" `Quick test_update_and_wait;
    Alcotest.test_case "sites and provenance" `Quick test_sites_and_provenance;
    Alcotest.test_case "seq clause" `Quick test_seq_clause;
    Alcotest.test_case "CUDA rendering" `Quick test_cuda_rendering;
    Alcotest.test_case "kernel interface" `Quick test_interface ]
