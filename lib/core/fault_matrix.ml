(** Fault-matrix sweep: fault kinds x recovery policies across a set of
    programs, asserting verified-correct results.

    Each cell arms a single-shot fault of one kind, runs the program under
    one resilience policy, and checks the designated outputs against the
    sequential reference (the same comparator as the §IV-C optimization
    safety net).  The default matrix pairs every transient kind with the
    [retry] and [full] policies and [device-lost] with [full] only — the
    combinations that must either recover verified-correct or degrade to
    CPU fallback, never produce a silently wrong answer. *)

type subject = {
  s_name : string;
  s_source : string;
  s_outputs : string list;  (** host variables defining correctness *)
}

type cell = {
  c_bench : string;
  c_kind : Gpusim.Fault_plan.kind;
  c_policy : string;
  c_devices : int;  (** device-set size the cell ran with (1 = classic) *)
  c_injected : int;
  c_retries : int;  (** transfer/alloc retries + checksum re-transfers *)
  c_reexecs : int;
  c_fallbacks : int;
  c_failovers : int;  (** shards re-executed on surviving devices *)
  c_verified : int;
  c_correct : bool;  (** outputs match the sequential reference *)
  c_recovered : bool;  (** run completed without an unrecovered fault *)
  c_device_lost : bool;
  c_overhead : float;  (** simulated time vs. the fault-free baseline *)
}

type t = {
  seed : int;
  cells : cell list;
  traces : (string * Gpusim.Timeline.t) list;
      (** per-cell device timelines (with [trace]), in cell order *)
}

(** A cell is acceptable when the run completed and its outputs are
    correct — whether by verified recovery or by CPU fallback. *)
let cell_ok c = c.c_recovered && c.c_correct

let all_ok t = List.for_all cell_ok t.cells

(** Policies a fault kind is swept against: recovery-only policies must
    handle every transient kind; device loss additionally needs the CPU
    fallback of [full]. *)
let policies_for kind =
  if Gpusim.Fault_plan.transient kind then
    [ Accrt.Resilience.Retry; Accrt.Resilience.Full ]
  else [ Accrt.Resilience.Full ]

let run ?(seed = 42) ?(kinds = Gpusim.Fault_plan.all_kinds)
    ?(device_counts = []) ?(trace = false) subjects =
  let cells = ref [] in
  let traces = ref [] in
  List.iter
    (fun s ->
      let prog = Minic.Parser.parse_string ~file:s.s_name s.s_source in
      let tp = Compiler.compile_program prog in
      let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
      let base_time_for devices =
        let baseline =
          Accrt.Interp.exec
            { Accrt.Interp.default with seed; devices }
            Accrt.Interp.detached tp
        in
        Gpusim.Metrics.total_time (Accrt.Interp.metrics baseline)
      in
      let base_time = base_time_for 1 in
      let run_cell ~kind ~policy ~devices ~plan ~label ~base_time =
        let cell =
          match
            Accrt.Interp.exec
              { Accrt.Interp.default with
                seed; timeline = trace; plan = Some plan; devices;
                resilience = policy }
              Accrt.Interp.detached tp
          with
          | o ->
              if trace then
                traces :=
                  (label, o.Accrt.Interp.device.Gpusim.Device.timeline)
                  :: !traces;
              let st = o.Accrt.Interp.resilience in
              let time =
                Gpusim.Metrics.total_time (Accrt.Interp.metrics o)
              in
              { c_bench = s.s_name; c_kind = kind;
                c_policy = Accrt.Resilience.name policy;
                c_devices = devices;
                c_injected = Gpusim.Fault_plan.injected plan;
                c_retries =
                  st.Accrt.Resilience.retries
                  + st.Accrt.Resilience.retransfers;
                c_reexecs = st.Accrt.Resilience.reexecs;
                c_fallbacks = st.Accrt.Resilience.fallbacks;
                c_failovers = st.Accrt.Resilience.failovers;
                c_verified = st.Accrt.Resilience.verified;
                c_correct =
                  Session.outputs_match ~outputs:s.s_outputs ~reference o;
                c_recovered = st.Accrt.Resilience.unrecovered = 0;
                c_device_lost = st.Accrt.Resilience.device_lost;
                c_overhead =
                  (if base_time > 0.0 then time /. base_time else 1.0);
              }
          | exception
              ( Accrt.Resilience.Unrecovered _
              | Gpusim.Device.Device_fault _ ) ->
              { c_bench = s.s_name; c_kind = kind;
                c_policy = Accrt.Resilience.name policy;
                c_devices = devices;
                c_injected = Gpusim.Fault_plan.injected plan;
                c_retries = 0; c_reexecs = 0; c_fallbacks = 0;
                c_failovers = 0; c_verified = 0; c_correct = false;
                c_recovered = false;
                c_device_lost = plan.Gpusim.Fault_plan.lost;
                c_overhead = 0.0 }
        in
        cells := cell :: !cells
      in
      List.iter
        (fun kind ->
          List.iter
            (fun policy ->
              let plan =
                Gpusim.Fault_plan.create ~seed
                  [ Gpusim.Fault_plan.mk_rule ~count:1 kind ]
              in
              let label =
                Fmt.str "%s/%s/%s" s.s_name
                  (Gpusim.Fault_plan.kind_name kind)
                  (Accrt.Resilience.name policy)
              in
              run_cell ~kind ~policy ~devices:1 ~plan ~label ~base_time)
            (policies_for kind))
        kinds;
      (* Device-loss x policy x device-count rows: kill one member at a
         kernel-launch gate, so a shard is genuinely in flight and must
         fail over to the survivors (validated by the §III-A comparator).
         With survivors available, even the fallback-less [retry] policy
         must recover these. *)
      List.iter
        (fun devices ->
          let base_time = base_time_for devices in
          let target =
            if Array.length tp.Codegen.Tprog.kernels > 0 then
              Some tp.Codegen.Tprog.kernels.(0).Codegen.Tprog.k_name
            else None
          in
          List.iter
            (fun lost_dev ->
              List.iter
                (fun policy ->
                  let plan =
                    Gpusim.Fault_plan.create ~seed
                      [ Gpusim.Fault_plan.mk_rule ?target ~count:1
                          ~dev:lost_dev Gpusim.Fault_plan.Device_lost ]
                  in
                  let label =
                    Fmt.str "%s/device-lost#%d@%ddev/%s" s.s_name lost_dev
                      devices (Accrt.Resilience.name policy)
                  in
                  run_cell ~kind:Gpusim.Fault_plan.Device_lost ~policy
                    ~devices ~plan ~label ~base_time)
                [ Accrt.Resilience.Retry; Accrt.Resilience.Full ])
            [ 0; devices - 1 ])
        (List.filter (fun n -> n > 1) device_counts))
    subjects;
  { seed; cells = List.rev !cells; traces = List.rev !traces }

(* ------------------------------ report ------------------------------ *)

let pp_cell ppf c =
  Fmt.pf ppf "%-10s %-14s %-6s %s  inj=%d retry=%d reexec=%d fb=%d ver=%d \
              %s overhead=%.2fx"
    c.c_bench
    (if c.c_devices > 1 then
       Fmt.str "%s@%ddev" (Gpusim.Fault_plan.kind_name c.c_kind) c.c_devices
     else Gpusim.Fault_plan.kind_name c.c_kind)
    c.c_policy
    (if cell_ok c then "[OK]  " else "[FAIL]")
    c.c_injected c.c_retries c.c_reexecs c.c_fallbacks c.c_verified
    (if c.c_device_lost then "lost->host"
     else if c.c_failovers > 0 then "failover"
     else if c.c_fallbacks > 0 then "fallback"
     else "recovered")
    c.c_overhead

let pp ppf t =
  Fmt.pf ppf "@[<v>fault matrix (seed %d, %d cells)" t.seed
    (List.length t.cells);
  List.iter (fun c -> Fmt.pf ppf "@,%a" pp_cell c) t.cells;
  let bad = List.filter (fun c -> not (cell_ok c)) t.cells in
  Fmt.pf ppf "@,%d/%d cell(s) recovered verified-correct%s"
    (List.length t.cells - List.length bad)
    (List.length t.cells)
    (if bad = [] then "" else " — MATRIX FAILED");
  Fmt.pf ppf "@]"

let json t =
  let module P = Obs.Pjson in
  let cell c =
    P.Obj
      [ ("bench", P.Str c.c_bench);
        ("fault", P.Str (Gpusim.Fault_plan.kind_name c.c_kind));
        ("policy", P.Str c.c_policy); ("devices", P.int c.c_devices);
        ("injected", P.int c.c_injected); ("retries", P.int c.c_retries);
        ("reexecs", P.int c.c_reexecs); ("fallbacks", P.int c.c_fallbacks);
        ("failovers", P.int c.c_failovers); ("verified", P.int c.c_verified);
        ("correct", P.Bool c.c_correct); ("recovered", P.Bool c.c_recovered);
        ("device_lost", P.Bool c.c_device_lost);
        ("overhead", P.fixed 6 c.c_overhead) ]
  in
  P.Obj
    [ ("seed", P.int t.seed); ("cells", P.int (List.length t.cells));
      ("all_ok", P.Bool (all_ok t));
      ( "fallback_cells",
        P.int (List.length (List.filter (fun c -> c.c_fallbacks > 0) t.cells))
      );
      ("matrix", P.Arr (List.map cell t.cells)) ]

(** Merged Chrome trace of every traced cell: one process per cell, named
    [bench/fault/policy], so recovery behaviour is comparable side by
    side in one Perfetto view. *)
let trace t =
  Obs.Pjson.Arr
    (List.concat
       (List.mapi
          (fun i (label, tl) ->
            let pid = i + 1 in
            Obs.Chrome.process_name ~pid label
            :: Obs.Chrome.timeline_events ~pid tl)
          t.traces))
