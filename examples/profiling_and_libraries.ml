(* The rest of the OpenACC V1.0 surface: library routines, directive
   functions (inlined by the compiler), conditional offload, launch
   dimensions, and the execution timeline the profiler exports.

     dune exec examples/profiling_and_libraries.exe
*)

let source =
  {|
void scale(float v[], int n, float factor) {
  /* a directive inside a callee: the compiler inlines this function */
  #pragma acc kernels loop gang worker num_gangs(32) num_workers(8)
  for (int i = 0; i < n; i++) {
    v[i] = v[i] * factor;
  }
}

int main() {
  int n = 2048;
  int offload = 1;
  float a[n];
  float total = 0.0;
  acc_init(4);                       /* acc_device_nvidia */
  int devices = acc_get_num_devices(4);
  for (int i = 0; i < n; i++) { a[i] = 1.0 + float(i % 9) * 0.125; }
  #pragma acc data copy(a)
  {
    scale(a, n, 2.0);
    /* conditional offload: this one runs on the host when offload == 0 */
    #pragma acc kernels loop if(offload) async(1)
    for (int i = 0; i < n; i++) {
      a[i] = a[i] + 0.5;
    }
    int busy = acc_async_test(1);    /* 0 while stream 1 is in flight */
    acc_async_wait(1);               /* runtime-routine equivalent of wait */
    int idle = acc_async_test(1);
    total = float(busy) * 100.0 + float(idle);
  }
  float checksum = 0.0;
  #pragma acc parallel loop reduction(+:checksum)
  for (int i = 0; i < n; i++) { checksum = checksum + a[i]; }
  acc_shutdown(4);
  return 0;
}
|}

let () =
  let tp = Openarc_core.Compiler.compile source in
  Fmt.pr "After inlining, main holds %d kernels:@."
    (Array.length tp.Codegen.Tprog.kernels);
  Array.iter
    (fun k ->
      let g, w, _ = k.Codegen.Tprog.k_dims in
      Fmt.pr "  %-22s dims=%s@." k.Codegen.Tprog.k_name
        (match (g, w) with
        | Some _, Some _ -> "explicit num_gangs x num_workers"
        | _ -> "device default"))
    tp.Codegen.Tprog.kernels;

  (* Run with the timeline recorder on. *)
  let outcome = Accrt.Interp.run ~coherence:false ~trace:true tp in
  Fmt.pr "@.checksum = %g   (async test before/after wait: %g)@."
    (Accrt.Value.to_float (Accrt.Interp.host_scalar outcome "checksum"))
    (Accrt.Value.to_float (Accrt.Interp.host_scalar outcome "total"));

  let timeline = outcome.Accrt.Interp.device.Gpusim.Device.timeline in
  Fmt.pr "@.Execution timeline (%d events):@."
    (Gpusim.Timeline.count timeline);
  Fmt.pr "%a" Gpusim.Timeline.pp timeline;
  Fmt.pr "@.Per-kind totals:@.";
  List.iter
    (fun (k, t) -> Fmt.pr "  %-14s %8.1f us@." k (t *. 1e6))
    (Gpusim.Timeline.summary timeline);

  (* Chrome-trace export, as `openarc run --trace` does. *)
  let json = Obs.Pjson.to_string (Obs.Chrome.of_timeline timeline) in
  Fmt.pr "@.Chrome-trace JSON: %d bytes (open in chrome://tracing)@."
    (String.length json)
