(** Interpreter for translated programs: executes host code natively, drives
    the {!Gpusim} device for data movement and kernels, and (on an
    instrumented program) the {!Coherence} runtime for the paper's
    memory-transfer verification.

    When the device carries an armed {!Gpusim.Fault_plan}, the interpreter
    becomes a resilient runtime governed by a {!Resilience.policy}.  Four
    gates catch device faults — allocation, transfer, the CPU fallback's
    re-upload and launch — and each asks {!Resilience.decide} what to do:

    - transient transfer/allocation faults are retried with exponential
      backoff (charged to the [Fault_recovery] metrics category);
    - silent transfer corruption is caught by end-to-end checksums and
      repaired by re-transfer;
    - kernel launches checkpoint their device inputs and committed scalars,
      so launch faults and ECC-detected bit flips re-execute from a clean
      state — and each re-execution is validated against the sequential
      reference (§III-A's comparator), reusing the demotion-snapshot idea;
    - under [full], exhausted retries and device loss degrade to CPU
      fallback: the original sequential region runs on the host (host mode
      once no member is alive), so a [full]-policy run never produces a
      silently wrong answer.

    After any recovery the host holds the freshest verified value: a
    download reaches the host array only once its checksum matches, and
    a kernel's CPU results belong to the host before they are re-uploaded. *)

open Minic.Ast
open Codegen.Tprog

type config = {
  engine : Engine.t;
  granularity : Coherence.granularity;
  seed : int;
  timeline : bool;
  plan : Gpusim.Fault_plan.t option;
  resilience : Resilience.policy;
  devices : int;
  schedule : Gpusim.Device_set.schedule;
}

let default =
  { engine = Engine.Compiled; granularity = Coherence.Coarse; seed = 42;
    timeline = false; plan = None; resilience = Resilience.Off; devices = 1;
    schedule = Gpusim.Device_set.Block }

type observers = {
  trace : Obs.Trace.t option;
  ledger : Obs.Ledger.t option;
  audit : Obs.Audit.t option;
}

let detached = { trace = None; ledger = None; audit = None }

type outcome = {
  ctx : Eval.ctx;  (** final host state *)
  device : Gpusim.Device.t;
  devset : Gpusim.Device_set.t;  (** the device set [device] is primary of *)
  coherence : Coherence.t;
  tprog : Codegen.Tprog.t;
  site_execs : (int, int) Hashtbl.t;  (** transfer-site id -> executions *)
  sites :
    (int, Codegen.Tprog.site * string * Codegen.Tprog.xdir) Hashtbl.t;
      (** executed transfer sites with their variable and direction *)
  resilience : Resilience.stats;  (** fault-recovery accounting *)
  imbalance : Obs.Imbalance.t option;
      (** shard-level cost attribution of every sharded launch
          (multi-device runs only) *)
  compiles : int;
      (** kernels the compiled engine compiled (0 under the tree walker):
          a trace's [engine_compiles] counter *)
  compile_hits : int;
      (** runner calls that found their kernel compiled: a trace's
          [engine_compile_hits] counter *)
}

let reports o = Coherence.reports o.coherence
let metrics o = o.device.Gpusim.Device.metrics

(** Final contents of host array [name] (by root). *)
let host_array o name = Value.array_buf o.ctx.Eval.env name

let host_scalar o name = Value.get_scalar o.ctx.Eval.env name

let trace_event tr ?dev = function
  | Gpusim.Device.Charge (cat, dt) ->
      Obs.Trace.charge tr ?dev ~category:(Gpusim.Metrics.category_name cat) dt
  | Gpusim.Device.Timeline e ->
      Obs.Trace.leaf tr Obs.Trace.Device
        (Gpusim.Timeline.kind_name e.Gpusim.Timeline.ev_kind)
        ?dev
        ~attrs:[ ("label", e.Gpusim.Timeline.ev_label) ]
        ~start:e.Gpusim.Timeline.ev_start
        ~duration:e.Gpusim.Timeline.ev_duration ()
  | Gpusim.Device.Xfer _ | Gpusim.Device.Mem _ -> ()

(* The ledger attribution of the transfer in flight, stamped on every DMA
   transfer a member reports. *)
type attribution = {
  cause : Obs.Ledger.cause;
  site : string;
  loc : string;
  exec : int;
  redundant : int -> bool;  (** member [d]'s destination copy was fresh *)
  hoist : bool;
}

let exec (cfg : config) (observers : observers) (tp : Codegen.Tprog.t) =
  let { engine; granularity; seed; timeline; plan; resilience = policy;
        devices; schedule } =
    cfg
  in
  let { trace = obs; ledger; audit } = observers in
  (* The §III-B runtime runs exactly when the program carries its checks. *)
  let coherence = tp.instrumented in
  if devices < 1 then invalid_arg "Interp.exec: devices must be >= 1";
  let devset =
    Gpusim.Device_set.create ~seed ~trace:timeline ?plan ~schedule devices
  in
  let device = Gpusim.Device_set.primary devset in
  (* One runtime path serves every set size; a one-member run is the
     general protocol over a set of one.  The member count is consulted
     only where a one-member run's output differs: charges and timeline
     leaves carry no ordinal, there are no per-member transfer leaves and
     no imbalance log, downloads are [copyout] rather than [gather] in the
     ledger, and losing the only member degrades straight to {!on_lost}. *)
  let multi = devices > 1 in
  (* Fold member fault events back into the base plan even when a fault
     escapes (the fault matrix reads the plan off exception paths). *)
  Fun.protect ~finally:(fun () -> Gpusim.Device_set.flush_events devset)
  @@ fun () ->
  let metrics = device.Gpusim.Device.metrics in
  let coh =
    Coherence.create ~granularity ?audit
      ~now:(fun () -> metrics.Gpusim.Metrics.host_clock)
      ~devices ()
  in
  Option.iter
    (fun tr ->
      Obs.Trace.set_clock tr (fun () -> metrics.Gpusim.Metrics.host_clock))
    obs;
  (* Shard-level cost attribution: every sharded launch's measured
     iteration weights and charged durations, for the schedule analyzer.
     A one-member run has nothing to attribute. *)
  let ilog =
    if multi then
      Some
        (Obs.Imbalance.create ~devices
           ~schedule:
             (Gpusim.Device_set.schedule_name
                devset.Gpusim.Device_set.schedule))
    else None
  in
  (* The attribution of the transfer in flight: set at the transfer site,
     on each retry and by the fallback re-upload. *)
  let attr =
    ref
      { cause = Obs.Ledger.Copyin; site = ""; loc = ""; exec = 0;
        redundant = (fun _ -> false); hoist = false }
  in
  (* Hoistability: a transfer-site execution is hoistable when it repeats
     an earlier movement of the same array and no host access in between
     required it.  [up_clean] holds the arrays uploaded with no host
     [Check_write] since, [down_clean] those downloaded with no host
     [Check_read] since.  Driven by the inserted coherence checks, so it
     is only meaningful on instrumented runs (exactly where [memtrace]
     runs). *)
  let up_clean : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let down_clean : (string, unit) Hashtbl.t = Hashtbl.create 16 in
  let clean = function H2D -> up_clean | D2H -> down_clean in
  (* One observer per member: charges and timeline events go to the trace
     (a charge event each: the conservation invariant), tagged with the
     member's ordinal in a multi-member run; transfers and allocations go
     to the ledger.  The device reports exactly the bytes its metrics
     recorded, so the ledger conserves bytes against
     [bytes_h2d]/[bytes_d2h] by construction.  Observing is pure: no RNG
     draw, charge or functional effect changes. *)
  (match (obs, ledger) with
  | None, None -> ()
  | _ ->
      Array.iter
        (fun d ->
          let ord = d.Gpusim.Device.id in
          let dev = if multi then Some ord else None in
          Gpusim.Device.observe d (fun ev ->
              match (ev, ledger, obs) with
              | Gpusim.Device.Xfer x, Some lg, _ ->
                  let a = !attr in
                  Obs.Ledger.xfer lg ~array:x.Gpusim.Device.x_name
                    ~dir:
                      (if x.Gpusim.Device.x_h2d then Obs.Ledger.H2d
                       else Obs.Ledger.D2h)
                    ~cause:a.cause ~bytes:x.Gpusim.Device.x_bytes ~dev:ord
                    ~site:a.site ~loc:a.loc ~exec:a.exec
                    ~time:x.Gpusim.Device.x_start
                    ~duration:x.Gpusim.Device.x_duration ~counted:true
                    ~redundant:(a.redundant ord) ~hoist:a.hoist
              | Gpusim.Device.Mem m, Some lg, _ ->
                  Obs.Ledger.mem lg ~array:m.Gpusim.Device.m_name ~dev:ord
                    ~bytes:m.Gpusim.Device.m_delta
                    ~allocated:m.Gpusim.Device.m_allocated
                    ~time:m.Gpusim.Device.m_time
              | _, _, Some tr -> trace_event tr ?dev ev
              | _, _, None -> ()))
        devset.Gpusim.Device_set.devices);
  (* Record a peer/mirror blit of [array] no device reports: modeled
     overlapped movement, ledgered uncounted so conservation still holds.
     A blit on behalf of kernel [k] is labelled [k]'s name followed by
     [site], at [k]'s location; labels are built only for an attached
     ledger. *)
  let note_blit ?k ~site ~dir ~cause ~bytes ~dev array =
    match ledger with
    | None -> ()
    | Some lg ->
        let site, loc =
          match k with
          | Some k -> (k.k_name ^ site, Minic.Loc.to_string k.k_loc)
          | None -> (site, "")
        in
        Obs.Ledger.xfer lg ~array ~dir ~cause ~bytes ~dev ~site ~loc ~exec:0
          ~time:metrics.Gpusim.Metrics.host_clock ~duration:0.0
          ~counted:false ~redundant:false ~hoist:false
  in
  (* A span's location is formatted only under an attached trace. *)
  let in_span kind name ?loc ?directive f =
    match obs with
    | None -> f ()
    | Some tr ->
        Obs.Trace.with_span tr kind name
          ?loc:(Option.map Minic.Loc.to_string loc)
          ?directive f
  in
  let bump name =
    match obs with None -> () | Some tr -> Obs.Trace.incr tr name
  in
  let site_execs = Hashtbl.create 32 in
  let sites = Hashtbl.create 32 in
  let env = Value.create () in
  let ctx = Eval.make tp.source env in
  (* Attach the OpenACC runtime-library routines to the device. *)
  let api = Acc_api.create devset in
  ctx.Eval.call_hook <- Some (Acc_api.hook api);
  Eval.init_globals ctx;

  (* Closure-compilation engine: kernel bodies compile once per run
     (cached by kernel id) and run over register frames; host statement
     leaves compile in mirror mode (cached by translated-statement id),
     keeping the environment name-addressable for everything around them.
     The recovery paths (CPU fallback, recovery validation) stay on the
     tree walker under either engine: recovery deliberately re-executes
     through the independent engine. *)
  let ecache = lazy (Compile.create_cache tp.source) in
  let compiles = ref 0 and compile_hits = ref 0 in
  let compiled k =
    let cache = Lazy.force ecache in
    if Compile.cached cache k then begin
      incr compile_hits;
      bump "engine_compile_hits"
    end
    else begin
      incr compiles;
      bump "engine_compiles";
      in_span Obs.Trace.Phase "compile-kernel"
        ~loc:k.k_loc ~directive:k.k_name
        (fun () -> Compile.prepare cache k)
    end;
    cache
  in
  (* The engine's kernel runner, shared by both launch paths: a whole
     launch calls it once owning every ordinal, a sharded launch once per
     shard, each between the session's start and commit. *)
  let run_shard session ?weights dev ~owns =
    match engine with
    | Engine.Tree -> Kernel_exec.run_shard session ?weights dev ~owns
    | Engine.Compiled ->
        Compile.run_shard
          (compiled (Kernel_exec.kernel session))
          session ?weights dev ~owns
  in

  let cmodel = device.Gpusim.Device.cm in
  let last_ops = ref ctx.Eval.ops in
  (* Charge accumulated host interpretation work as CPU time. *)
  let charge_host () =
    let delta = ctx.Eval.ops - !last_ops in
    if delta > 0 then
      Gpusim.Device.charge device Gpusim.Metrics.Cpu_time
        (Gpusim.Costmodel.cpu_time cmodel ~ops:delta);
    last_ops := ctx.Eval.ops
  in
  let eval_int e = Value.to_int (Eval.eval ctx e) in
  let eval_async = Option.map eval_int in

  (* ------------------------- fault recovery ------------------------- *)
  let stats = Resilience.fresh_stats () in
  (* Every resilience action also becomes a [Recovery] leaf span carrying
     its cause, so traces explain *why* time was spent recovering. *)
  let record ~fault ~action ~ok =
    Resilience.record stats ~fault ~action ~ok;
    bump "recoveries";
    match obs with
    | None -> ()
    | Some tr ->
        Obs.Trace.leaf tr Obs.Trace.Recovery action
          ~attrs:
            [ ("cause",
               Gpusim.Fault_plan.kind_name fault.Gpusim.Device.f_kind);
              ("target", fault.Gpusim.Device.f_target);
              ("op", fault.Gpusim.Device.f_op);
              ("ok", string_of_bool ok) ]
          ~start:metrics.Gpusim.Metrics.host_clock ~duration:0.0 ()
  in
  (* Arrays demoted to host residence (OOM / unrecoverable transfers). *)
  let host_only : (string, unit) Hashtbl.t = Hashtbl.create 4 in
  (* Under [full], the host-side mirror of every root whose freshest copy
     lives only on the device, so a lost device does not take the data
     with it: an entry exists exactly while the device holds the only
     fresh copy.  Nothing is mirrored under the other policies. *)
  let mirrors : (string, Gpusim.Buf.t) Hashtbl.t = Hashtbl.create 8 in

  let charge_recovery dt =
    Gpusim.Device.charge device Gpusim.Metrics.Fault_recovery dt
  in
  let unrecovered fault =
    stats.Resilience.unrecovered <- stats.Resilience.unrecovered + 1;
    record ~fault ~action:"abort" ~ok:false;
    raise (Resilience.Unrecovered fault)
  in
  (* A spent retry budget: [fall_back] (recording [action]) under [full],
     else the run ends. *)
  let on_exhausted fault ~action fall_back =
    if Resilience.falls_back policy then begin
      record ~fault ~action ~ok:true;
      fall_back ()
    end
    else unrecovered fault
  in
  (* Restore mirror [m] into the host array [v] it shadows. *)
  let restore_mirror v m =
    match Value.lookup env v with
    | Some (Value.Array { buf = Some hb; _ })
      when Gpusim.Buf.length m = Gpusim.Buf.length hb ->
        Gpusim.Buf.blit ~src:m ~dst:hb;
        note_blit ~site:"mirror-restore" ~dir:Obs.Ledger.D2h
          ~cause:Obs.Ledger.Demotion ~bytes:(Gpusim.Buf.bytes m)
          ~dev:device.Gpusim.Device.id v;
        charge_recovery
          (Gpusim.Costmodel.cpu_time cmodel ~ops:(Gpusim.Buf.length m))
    | _ -> ()
  in
  (* No member is left: under [full] recover the data only the devices
     held from the resilience mirrors and continue in host mode (every
     kernel runs as its sequential region while
     [Device_set.all_lost devset]), else give up. *)
  let on_lost fault =
    if Resilience.falls_back policy then begin
      stats.Resilience.device_lost <- true;
      Hashtbl.iter restore_mirror mirrors;
      Hashtbl.reset mirrors;
      record ~fault ~action:"host-mode" ~ok:true
    end
    else unrecovered fault
  in
  (* -------------------------- device-set state -------------------------- *)
  (* Member devices currently holding the freshest copy of each root, in
     device order (functional tracking, independent of the coherence
     runtime so it works with verification disabled). *)
  let fresh_on : (string, int list) Hashtbl.t = Hashtbl.create 8 in
  (* Gather downloads rotate across the members holding a fresh copy: every
     member's DMA engine charges its own clock, so the host-visible cost of
     result gathering shrinks as the set grows (the scaling the bench scale
     tier measures). *)
  let gather_rr = ref 0 in
  let alive_members () =
    List.map (Gpusim.Device_set.device devset)
      (Gpusim.Device_set.alive_ids devset)
  in
  (* The members a download of [v] may be served from: those holding a
     fresh copy, else the first alive member. *)
  let download_sources v =
    match Hashtbl.find_opt fresh_on v with
    | Some (_ :: _ as ids) ->
        List.filter Gpusim.Device.alive
          (List.map (Gpusim.Device_set.device devset) ids)
    | Some [] | None -> Option.to_list (Gpusim.Device_set.first_alive devset)
  in
  (* One member dropped off the bus: its copies are gone; survivors carry
     on.  Losing the last member degrades the whole run ({!on_lost}); the
     only member of a one-member set is not a dropped member. *)
  let on_member_lost d fault =
    if not multi then on_lost fault
    else begin
      stats.Resilience.devices_lost <- stats.Resilience.devices_lost + 1;
      record ~fault ~action:"device-drop" ~ok:true;
      Coherence.on_device_lost coh d;
      Hashtbl.filter_map_inplace
        (fun _ ids ->
          match List.filter (fun x -> x <> d) ids with
          | [] -> None
          | ids -> Some ids)
        fresh_on;
      if Gpusim.Device_set.all_lost devset then on_lost fault
    end
  in
  (* Keep an array on the host for the rest of the run. *)
  let demote_to_host v =
    Option.iter (restore_mirror v) (Hashtbl.find_opt mirrors v);
    Hashtbl.remove mirrors v;
    List.iter
      (fun dev ->
        if Gpusim.Device.is_allocated dev v then Gpusim.Device.free dev v)
      (alive_members ());
    Hashtbl.remove fresh_on v;
    Hashtbl.replace host_only v ()
  in
  (* The data gate: an allocation, transfer or fallback re-upload of [v] on
     member [dev] caught [fault] on attempt [n].  {!Resilience.decide}
     picks the outcome; a spent budget keeps [v] on the host.  A lost
     member's operation is not replayed here: the caller replays a
     download on a survivor, and in host mode the host copy is
     authoritative. *)
  let on_data_fault ?(action = "retry") dev v n fault ~retry =
    match Resilience.decide policy fault.Gpusim.Device.f_kind ~attempt:n with
    | Resilience.Member_lost -> on_member_lost dev.Gpusim.Device.id fault
    | Resilience.Reattempt ->
        if action = "re-transfer" then
          stats.Resilience.retransfers <- stats.Resilience.retransfers + 1
        else stats.Resilience.retries <- stats.Resilience.retries + 1;
        record ~fault ~action ~ok:true;
        charge_recovery (Resilience.backoff n);
        retry (n + 1)
    | Resilience.Exhausted ->
        on_exhausted fault ~action:"host-demote" (fun () -> demote_to_host v)
    | Resilience.Propagate -> raise (Gpusim.Device.Device_fault fault)
  in
  (* After a successful launch the written roots are freshest on the
     device; under [full], mirror them so device loss cannot destroy data
     (the checkpoint upkeep the report accounts for). *)
  let refresh_mirrors dev written =
    if Resilience.falls_back policy then
      Analysis.Varset.iter
        (fun v ->
          if Gpusim.Device.is_allocated dev v then begin
            let b = Gpusim.Device.buffer dev v in
            (match Hashtbl.find_opt mirrors v with
            | Some m when Gpusim.Buf.length m = Gpusim.Buf.length b ->
                Gpusim.Buf.blit ~src:b ~dst:m
            | _ -> Hashtbl.replace mirrors v (Gpusim.Buf.copy b));
            charge_recovery
              (Gpusim.Costmodel.compare_time cmodel
                 ~elems:(Gpusim.Buf.length b))
          end)
        written
  in

  (* ----------------------- resilient transfers ---------------------- *)
  (* One DMA copy of [v] between [host] and member [dev], through the data
     gate.  Under a recovering policy the source and destination checksums
     must agree or the copy is redone ([Xfer_corrupt]'s only detector), and
     a download lands in a staging copy that reaches [host] only once its
     checksum matches. *)
  let do_transfer dev v ~dir ~label ~host ~range ~async =
    let verify = Resilience.recovers policy in
    let hbuf = if verify && dir = D2H then Gpusim.Buf.copy host else host in
    let checksum_ok () =
      let elems =
        match range with
        | Some (_, len) -> len
        | None -> Gpusim.Buf.length host
      in
      charge_recovery (Gpusim.Costmodel.compare_time cmodel ~elems);
      Gpusim.Buf.checksum ?range hbuf
      = Gpusim.Buf.checksum ?range (Gpusim.Device.buffer dev v)
    in
    let rec attempt n =
      (* Re-transfers (transient retry, checksum repair) are their own
         ledger cause: recovery traffic, not the data clause's. *)
      if n > 0 then attr := { !attr with cause = Obs.Ledger.Retry };
      match
        match dir with
        | H2D -> Gpusim.Device.upload dev v ~host ?range ?async ~label ()
        | D2H ->
            Gpusim.Device.download dev v ~host:hbuf ?range ?async ~label ()
      with
      | () ->
          if verify && not (checksum_ok ()) then
            on_data_fault ~action:"re-transfer" dev v n ~retry:attempt
              { Gpusim.Device.f_kind = Gpusim.Fault_plan.Xfer_corrupt;
                f_target = v;
                f_op = (match dir with H2D -> "upload" | D2H -> "download") }
          else if hbuf != host then (
            match range with
            | Some (lo, len) ->
                Gpusim.Buf.blit_range ~src:hbuf ~dst:host ~lo ~len
            | None -> Gpusim.Buf.blit ~src:hbuf ~dst:host)
      | exception Gpusim.Device.Device_fault fault ->
          on_data_fault dev v n fault ~retry:attempt
    in
    attempt 0
  in

  (* ------------------------ resilient launches ----------------------- *)
  (* The CPU fallback of one kernel, and the whole of host mode: restore
     its host inputs from the pre-launch checkpoint of the device buffers,
     run the original sequential region on the live host state, then push
     the kernel's arrays back through the transfer gate to the alive
     members so later device kernels see the results.  The host holds the
     freshest copy of those arrays before the re-upload starts, so a
     demotion or device loss during it keeps the CPU's results. *)
  let restore_scalars = List.iter (fun (_, c, v0) -> c.Value.v <- v0) in
  let cpu_fallback_exec k ~ckpt ~entry =
    restore_scalars entry;
    List.iter
      (fun (v, b) ->
        match Value.lookup env v with
        | Some (Value.Array { buf = Some hb; _ })
          when Gpusim.Buf.length hb = Gpusim.Buf.length b ->
            Gpusim.Buf.blit ~src:b ~dst:hb;
            note_blit ~k ~site:".restore" ~dir:Obs.Ledger.D2h
              ~cause:Obs.Ledger.Demotion ~bytes:(Gpusim.Buf.bytes b)
              ~dev:device.Gpusim.Device.id v;
            charge_recovery
              (Gpusim.Costmodel.cpu_time cmodel ~ops:(Gpusim.Buf.length b))
        | _ -> ())
      ckpt;
    Value.scoped env (fun () -> Eval.exec ctx k.k_source);
    charge_host ();
    stats.Resilience.fallbacks <- stats.Resilience.fallbacks + 1;
    if not (Gpusim.Device_set.all_lost devset) then begin
      Analysis.Varset.iter (Hashtbl.remove mirrors) (kernel_arrays k);
      let label = k.k_name ^ ".recover" in
      Analysis.Varset.iter
        (fun v ->
          attr :=
            { cause = Obs.Ledger.Failover; site = label;
              loc = Minic.Loc.to_string k.k_loc; exec = 0;
              redundant = (fun _ -> false); hoist = false };
          List.iter
            (fun dev ->
              if Gpusim.Device.is_allocated dev v then
                do_transfer dev v ~dir:H2D ~label ~host:(Value.array_buf env v)
                  ~range:None ~async:None)
            (alive_members ());
          if not (Hashtbl.mem host_only v) then
            Hashtbl.replace fresh_on v (Gpusim.Device_set.alive_ids devset))
        (kernel_arrays k)
    end
  in
  (* Validate a recovery with the §III-A comparator: execute the original
     sequential region in a shadow environment seeded from the checkpoint
     (scalar entry values, pre-launch device arrays) and compare every
     written array and committed scalar against the recovered device
     results under a small error margin. *)
  let validate_recovery dev k ~ckpt ~entry =
    (* One shadow copy per checkpointed root, shared by every binding that
       aliases it (pointer-swap programs). *)
    let shadow_bufs = List.map (fun (v, b) -> (v, Gpusim.Buf.copy b)) ckpt in
    let env' =
      Value.map_bindings
        (fun name b ->
          match b with
          | Value.Scalar c ->
              let v =
                match List.find_opt (fun (n, _, _) -> n = name) entry with
                | Some (_, _, v0) -> v0
                | None -> c.Value.v
              in
              Value.Scalar { Value.v }
          | Value.Array slot -> (
              match List.assoc_opt slot.Value.root shadow_bufs with
              | Some sb ->
                  Value.Array
                    { Value.buf = Some sb;
                      root = slot.Value.root;
                      shape = slot.Value.shape }
              | None -> b))
        env
    in
    let sctx = Eval.make ctx.Eval.prog env' in
    Value.scoped env' (fun () -> Eval.exec sctx k.k_source);
    charge_recovery
      (Gpusim.Costmodel.cpu_time cmodel ~ops:sctx.Eval.ops);
    let margin = 1e-6 in
    let arrays_ok =
      Analysis.Varset.for_all
        (fun v ->
          match Value.lookup env' v with
          | Some (Value.Array { buf = Some reference; _ })
            when Gpusim.Device.is_allocated dev v ->
              let got = Gpusim.Device.buffer dev v in
              charge_recovery
                (Gpusim.Costmodel.compare_time cmodel
                   ~elems:(Gpusim.Buf.length reference));
              let _, bad = Gpusim.Buf.compare ~margin ~reference got in
              bad = 0
          | _ -> true)
        k.k_arrays_written
    in
    let scalars_ok =
      List.for_all
        (fun (name, _) ->
          match (Value.lookup env' name, Value.lookup env name) with
          | Some (Value.Scalar c_ref), Some (Value.Scalar c_got) ->
              Gpusim.Buf.matches ~margin
                ~reference:(Value.to_float c_ref.Value.v)
                (Value.to_float c_got.Value.v)
          | _ -> true)
        k.k_scalars
    in
    arrays_ok && scalars_ok
  in
  (* The entry scalars of a recovering launch: each name whose host cell
     the kernel commits into (the state a checkpoint must capture besides
     device arrays), with its cell and its value at launch. *)
  let entry_scalars k =
    let base = List.map fst k.k_scalars in
    let ind = Analysis.Varset.elements k.k_induction in
    let lv = match k.k_loop with Some l -> [ l.kl_var ] | None -> [] in
    List.filter_map
      (fun name ->
        match Value.lookup env name with
        | Some (Value.Scalar c) -> Some (name, c, c.Value.v)
        | _ -> None)
      (List.sort_uniq compare (base @ ind @ lv))
  in
  (* Escalation out of a failed launch: degrade the whole kernel to the
     sequential region under [full], else end the run. *)
  let exception Degrade of Gpusim.Device.fault_info in
  (* Check a recovered launch with the §III-A comparator: a confirmed
     recovery is counted, a refuted one degrades the kernel. *)
  let validated ~recovered k ~ckpt ~entry dev =
    if recovered then
      if validate_recovery dev k ~ckpt ~entry then
        stats.Resilience.verified <- stats.Resilience.verified + 1
      else begin
        let fault =
          { Gpusim.Device.f_kind = Gpusim.Fault_plan.Launch_fail;
            f_target = k.k_name; f_op = "recovery-validation" }
        in
        record ~fault ~action:"re-execute" ~ok:false;
        raise (Degrade fault)
      end
  in
  (* The launch gate, for whole launches and shards alike: a lost [member]
     fails over to [survivor ()], or takes [on_host_mode ()] when none is
     left; a transient fault re-executes in place while the budget lasts,
     then degrades the kernel.  [failover] (same attempt count) and
     [reexec] (the next) restore state and re-run once the backoff is
     charged. *)
  let on_launch_fault ~member ~on_host_mode ~survivor ~failover ~reexec n
      fault =
    match Resilience.decide policy fault.Gpusim.Device.f_kind ~attempt:n with
    | Resilience.Member_lost -> (
        on_member_lost member fault;
        match survivor () with
        | None -> on_host_mode ()
        | Some s ->
            stats.Resilience.failovers <- stats.Resilience.failovers + 1;
            record ~fault ~action:"failover" ~ok:true;
            charge_recovery (Resilience.backoff n);
            failover s n)
    | Resilience.Reattempt ->
        stats.Resilience.reexecs <- stats.Resilience.reexecs + 1;
        record ~fault ~action:"re-execute" ~ok:true;
        charge_recovery (Resilience.backoff n);
        reexec (n + 1)
    | Resilience.Exhausted -> raise (Degrade fault)
    | Resilience.Propagate -> raise (Gpusim.Device.Device_fault fault)
  in
  let kernel_width k =
    let g, w, v = k.k_dims in
    match List.filter_map (Option.map eval_int) [ g; w; v ] with
    | [] -> None
    | dims -> Some (List.fold_left ( * ) 1 dims)
  in
  (* Bring every alive member's copy of the kernel's arrays current before
     a launch: a functional peer blit from a fresh member, modeled as
     overlapped peer DMA (charged to no clock), and noted in the
     per-device lattice. *)
  let sync_inputs k =
    Analysis.Varset.iter
      (fun v ->
        match Hashtbl.find_opt fresh_on v with
        | None | Some [] -> ()
        | Some (f :: _ as fresh) ->
            let src =
              Gpusim.Device.buffer (Gpusim.Device_set.device devset f) v
            in
            let refreshed = ref [] in
            List.iter
              (fun d ->
                if not (List.mem d fresh) then begin
                  let dev = Gpusim.Device_set.device devset d in
                  if Gpusim.Device.is_allocated dev v then begin
                    Gpusim.Buf.blit ~src ~dst:(Gpusim.Device.buffer dev v);
                    refreshed := d :: !refreshed
                  end
                end)
              (Gpusim.Device_set.alive_ids devset);
            (match !refreshed with
            | [] -> ()
            | refreshed ->
                bump "peer_syncs";
                List.iter
                  (fun d ->
                    note_blit ~site:"peer-sync" ~dir:Obs.Ledger.H2d
                      ~cause:Obs.Ledger.Rebroadcast
                      ~bytes:(Gpusim.Buf.bytes src) ~dev:d v)
                  refreshed;
                Hashtbl.replace fresh_on v
                  (List.sort_uniq compare (fresh @ refreshed));
                if coherence then
                  Coherence.note_gpu_fresh coh v ~devs:refreshed))
      (kernel_arrays k)
  in
  (* Snapshot the kernel's device inputs from a fresh member: the
     checkpoint of a recovering launch (exactly the data the §III-A
     demotion snapshot would upload), the merge reference that separates a
     sharded launch's writes, and the bridge of a host-only fallback.  The
     checkpoint cost is charged only when the policy actually checkpoints. *)
  let snapshot_inputs k ~charge =
    match Gpusim.Device_set.first_alive devset with
    | None -> []
    | Some dev ->
        List.filter_map
          (fun v ->
            if Gpusim.Device.is_allocated dev v then begin
              let b = Gpusim.Device.buffer dev v in
              if charge then
                charge_recovery
                  (Gpusim.Costmodel.compare_time cmodel
                     ~elems:(Gpusim.Buf.length b));
              Some (v, Gpusim.Buf.copy b)
            end
            else None)
          (Analysis.Varset.elements (kernel_arrays k))
  in
  (* Execute an unsharded kernel (seq, straight-line, a one-member set's,
     or a lone survivor's) on one member, failing over to the next alive
     member on device loss. *)
  let launch_one_member dev0 k async ~ckpt ~entry =
    let written = Analysis.Varset.elements k.k_arrays_written in
    let failed_over = ref false in
    let restore_ckpt dev =
      List.iter
        (fun (v, b) ->
          if Gpusim.Device.is_allocated dev v then
            Gpusim.Buf.blit ~src:b ~dst:(Gpusim.Device.buffer dev v))
        ckpt;
      restore_scalars entry
    in
    let rec attempt dev n =
      match
        Gpusim.Device.begin_launch dev ~label:k.k_name;
        let session = Kernel_exec.start ctx k in
        let iterations = run_shard session dev ~owns:(fun _ -> true) in
        Kernel_exec.commit session;
        (* Launch dimensions are host expressions, evaluated (and their
           ops counted) once per executed attempt. *)
        let width = kernel_width k in
        Gpusim.Device.launch dev ~iterations ~ops_per_iter:k.k_ops_per_iter
          ?width ?async ~label:k.k_name ();
        Gpusim.Device.scrub dev written
      with
      | [] ->
          validated ~recovered:(n > 0 || !failed_over) k ~ckpt ~entry dev;
          (* The written roots are fresh only on the executing member: the
             per-device divergence the cross-device coherence reports (and
             later peer syncs) stem from. *)
          let id = dev.Gpusim.Device.id in
          List.iter (fun v -> Hashtbl.replace fresh_on v [ id ]) written;
          if coherence then
            List.iter
              (fun v -> Coherence.note_kernel_write coh v ~devs:[ id ])
              written;
          refresh_mirrors dev k.k_arrays_written
      | detected :: _ -> recover dev n detected
      | exception Gpusim.Device.Device_fault fault -> recover dev n fault
    and recover dev n fault =
      on_launch_fault ~member:dev.Gpusim.Device.id n fault
        ~on_host_mode:(fun () -> cpu_fallback_exec k ~ckpt ~entry)
        ~survivor:(fun () -> Gpusim.Device_set.first_alive devset)
        ~failover:(fun dev' n ->
          failed_over := true;
          restore_ckpt dev';
          attempt dev' n)
        ~reexec:(fun n ->
          restore_ckpt dev;
          attempt dev n)
    in
    attempt dev0 0
  in
  (* Split a parallel-loop kernel across the alive members.  Each member
     runs its shard against its own buffers; a member dying mid-launch has
     its in-flight shard discarded and re-executed on a survivor; written
     arrays are merged against the pre-launch snapshot (last writer in
     device order wins, but shards are disjoint by construction) and
     broadcast back; recoveries are validated by the §III-A comparator. *)
  let launch_sharded k async ~ckpt ~entry =
    let session = Kernel_exec.start ctx k in
    let parts = Array.of_list (Gpusim.Device_set.alive_ids devset) in
    let total =
      Kernel_exec.total_iterations session
        (Gpusim.Device_set.device devset parts.(0))
    in
    let nparts = Array.length parts in
    let schedule = devset.Gpusim.Device_set.schedule in
    let assign i = Gpusim.Device_set.owner schedule ~parts:nparts ~total i in
    let written = Analysis.Varset.elements k.k_arrays_written in
    let width = kernel_width k in
    let executor = Array.copy parts in
    let recovered = ref false in
    let restore_written dev =
      List.iter
        (fun (v, b) ->
          if
            List.mem v written && Gpusim.Device.is_allocated dev v
          then Gpusim.Buf.blit ~src:b ~dst:(Gpusim.Device.buffer dev v))
        ckpt
    in
    let survivor_for p =
      match Gpusim.Device_set.alive_ids devset with
      | [] -> None
      | alive -> Some (List.nth alive (p mod List.length alive))
    in
    (* Phase 1 — functional execution: every shard runs (and is scrubbed /
       failed over) before any time is charged, measuring the interpreted
       ops of each iteration ordinal.  Charging is deferred to phase 2 so
       each member's shard can be priced by its measured share of the
       whole iteration space's cost-model time (work-conserving: the
       slowest member never exceeds the single-device cost). *)
    let weights = Array.make (max 1 total) 0 in
    let shard_iters = Array.make nparts 0 in
    let failed_over = Array.make nparts false in
    let rec exec_part p n =
      let dev = Gpusim.Device_set.device devset executor.(p) in
      match
        Gpusim.Device.begin_launch dev ~label:k.k_name;
        shard_iters.(p) <-
          run_shard session ~weights dev ~owns:(fun i -> assign i = p);
        Gpusim.Device.scrub dev written
      with
      | [] -> ()
      | detected :: _ -> recover_part p n detected
      | exception Gpusim.Device.Device_fault fault -> recover_part p n fault
    and recover_part p n fault =
      on_launch_fault ~member:executor.(p) n fault
        ~on_host_mode:(fun () -> raise (Degrade fault))
        ~survivor:(fun () -> survivor_for p)
        ~failover:(fun d' n ->
          executor.(p) <- d';
          recovered := true;
          failed_over.(p) <- true;
          exec_part p n)
        ~reexec:(fun n ->
          recovered := true;
          restore_written (Gpusim.Device_set.device devset executor.(p));
          exec_part p n)
    in
    for p = 0 to nparts - 1 do
      exec_part p 0
    done;
    (* Phase 2 — shard pricing: split the whole iteration space's
       cost-model time (minus launch latency) across the shards in
       proportion to their measured interpreted work, and charge each
       executing member its share.  Max share <= 1, so a sharded launch
       is never slower than the unsharded one; an uneven split (the
       block/cyclic choice) shows up directly as the spread. *)
    let w_total = Array.fold_left ( + ) 0 weights in
    let overhead = cmodel.Gpusim.Costmodel.kernel_launch in
    let full =
      Gpusim.Costmodel.kernel_time ?width cmodel ~iterations:total
        ~ops_per_iter:k.k_ops_per_iter
    in
    let unit_cost =
      if w_total > 0 then
        Float.max 0.0 (full -. overhead) /. float_of_int w_total
      else 0.0
    in
    let shard_ops = Array.make nparts 0 in
    for i = 0 to total - 1 do
      let p = assign i in
      shard_ops.(p) <- shard_ops.(p) + weights.(i)
    done;
    let shard_durs = Array.make nparts 0.0 in
    for p = 0 to nparts - 1 do
      let dev = Gpusim.Device_set.device devset executor.(p) in
      let base = overhead +. (unit_cost *. float_of_int shard_ops.(p)) in
      let t0 = dev.Gpusim.Device.metrics.Gpusim.Metrics.host_clock in
      let dur =
        Gpusim.Device.launch_timed dev ~iterations:shard_iters.(p)
          ~ops_per_iter:k.k_ops_per_iter ?width ~time:base ~jitter:false
          ?async ~label:k.k_name ()
      in
      shard_durs.(p) <- dur;
      match obs with
      | None -> ()
      | Some tr ->
          Obs.Trace.leaf tr Obs.Trace.Kernel
            (Fmt.str "%s.shard%d" k.k_name p)
            ~loc:(Minic.Loc.to_string k.k_loc) ~directive:k.k_name
            ~dev:executor.(p)
            ~attrs:
              [ ("iterations", string_of_int shard_iters.(p));
                ("ops", string_of_int shard_ops.(p));
                ("failover", string_of_bool failed_over.(p)) ]
            ~start:t0 ~duration:dur ()
    done;
    (* Completion barrier: the host resumes once the slowest member's
       shards (failover re-executions included) have drained. *)
    let busy = Array.make (Gpusim.Device_set.size devset) 0.0 in
    for p = 0 to nparts - 1 do
      busy.(executor.(p)) <- busy.(executor.(p)) +. shard_durs.(p)
    done;
    let maxbusy = Array.fold_left Float.max 0.0 busy in
    let idle = Float.max 0.0 (maxbusy -. busy.(0)) in
    if idle > 0.0 then (
      match async with
      | None -> Gpusim.Device.charge device Gpusim.Metrics.Async_wait idle
      | Some q -> Gpusim.Device.delay_stream device q idle);
    (* Merge each member's disjoint shard writes against the pre-launch
       snapshot and broadcast the result (overlapped peer DMA: charged to
       no clock, but modeled as one PCIe round per launch for the
       analyzer), so every survivor holds the full array. *)
    let alive = Gpusim.Device_set.alive_ids devset in
    let merge_bytes = ref 0 in
    List.iter
      (fun v ->
        match List.assoc_opt v ckpt with
        | None -> ()
        | Some reference ->
            let merged = Gpusim.Buf.copy reference in
            List.iter
              (fun d ->
                let dev = Gpusim.Device_set.device devset d in
                if Gpusim.Device.is_allocated dev v then
                  Gpusim.Buf.merge_diff ~reference
                    ~src:(Gpusim.Device.buffer dev v) ~dst:merged)
              alive;
            List.iter
              (fun d ->
                let dev = Gpusim.Device_set.device devset d in
                if Gpusim.Device.is_allocated dev v then begin
                  Gpusim.Buf.blit ~src:merged
                    ~dst:(Gpusim.Device.buffer dev v);
                  note_blit ~k ~site:".merge" ~dir:Obs.Ledger.H2d
                    ~cause:Obs.Ledger.Rebroadcast
                    ~bytes:(Gpusim.Buf.bytes reference) ~dev:d v
                end)
              alive;
            merge_bytes := !merge_bytes + Gpusim.Buf.bytes reference;
            Hashtbl.replace fresh_on v alive;
            if coherence then Coherence.note_kernel_write coh v ~devs:alive)
      written;
    let merge_cost =
      if !merge_bytes = 0 then 0.0
      else Gpusim.Costmodel.transfer_time cmodel ~bytes:!merge_bytes ~noise:0.0
    in
    (match obs with
    | Some tr when merge_cost > 0.0 ->
        List.iter
          (fun d ->
            let dev = Gpusim.Device_set.device devset d in
            Obs.Trace.leaf tr Obs.Trace.Merge
              (Fmt.str "%s.merge" k.k_name)
              ~loc:(Minic.Loc.to_string k.k_loc) ~directive:k.k_name ~dev:d
              ~attrs:[ ("bytes", string_of_int !merge_bytes) ]
              ~start:dev.Gpusim.Device.metrics.Gpusim.Metrics.host_clock
              ~duration:merge_cost ())
          alive
    | Some _ | None -> ());
    (match ilog with
    | None -> ()
    | Some il ->
        Obs.Imbalance.record il
          { Obs.Imbalance.l_kernel = k.k_name;
            l_loc = Minic.Loc.to_string k.k_loc;
            l_parts = nparts;
            l_total = total;
            l_weights = weights;
            l_unit = unit_cost;
            l_overhead = overhead;
            l_shards =
              Array.init nparts (fun p ->
                  { Obs.Imbalance.sh_part = p;
                    sh_dev = executor.(p);
                    sh_iters = shard_iters.(p);
                    sh_ops = shard_ops.(p);
                    sh_time = shard_durs.(p);
                    sh_failover = failed_over.(p) });
            l_barrier = idle;
            l_wall = maxbusy;
            l_merge = merge_cost;
            l_merge_bytes = !merge_bytes });
    Kernel_exec.commit session;
    Option.iter
      (validated ~recovered:!recovered k ~ckpt ~entry)
      (Gpusim.Device_set.first_alive devset);
    match Gpusim.Device_set.first_alive devset with
    | Some dev -> refresh_mirrors dev k.k_arrays_written
    | None -> ()
  in
  let launch_resilient k async =
    if
      Gpusim.Device_set.all_lost devset
      || Analysis.Varset.exists (Hashtbl.mem host_only) (kernel_arrays k)
    then
      (* Host mode, or some of the kernel's data could not be kept on the
         device: run the whole region on the host, bridging from/to the
         arrays that do live on the device. *)
      cpu_fallback_exec k ~ckpt:(snapshot_inputs k ~charge:false) ~entry:[]
    else begin
      sync_inputs k;
      let members = alive_members () in
      let sharded =
        match members with
        | _ :: _ :: _ -> Kernel_exec.shardable k
        | _ -> false
      in
      let checkpointing = Resilience.recovers policy in
      (* Only recovery and the shard merge read the snapshot. *)
      let ckpt =
        if checkpointing || sharded then
          snapshot_inputs k ~charge:checkpointing
        else []
      in
      (* Only re-execution, the CPU fallback and recovery validation read
         the entry scalars, and [none] reaches none of them. *)
      let entry = if checkpointing then entry_scalars k else [] in
      try
        match members with
        | dev :: _ when not sharded ->
            launch_one_member dev k async ~ckpt ~entry
        | _ -> launch_sharded k async ~ckpt ~entry
      with Degrade fault ->
        on_exhausted fault ~action:"cpu-fallback" (fun () ->
            cpu_fallback_exec k ~ckpt ~entry)
    end
  in

  let loop_label init tid =
    match init with
    | Some { skind = Sdecl (_, v, _); _ } | Some { skind = Sassign (Lvar v, _); _ }
      -> v
    | Some _ | None -> Fmt.str "loop%d" tid
  in

  let rec exec_t (s : tstmt) =
    match s.tkind with
    | Thost st ->
        (match engine with
        | Engine.Tree -> Eval.exec ctx st
        | Engine.Compiled ->
            Compile.host_stmt (Lazy.force ecache) ctx s.tid st);
        charge_host ()
    | Tblock b -> Value.scoped env (fun () -> exec_ts b)
    | Tif (c, b1, b2) ->
        let cond = Value.truthy (Eval.eval ctx c) in
        charge_host ();
        if cond then Value.scoped env (fun () -> exec_ts b1)
        else Value.scoped env (fun () -> exec_ts b2)
    | Twhile (c, b) ->
        Coherence.enter_loop coh (Fmt.str "while%d" s.tid);
        (try
           while
             let v = Value.truthy (Eval.eval ctx c) in
             charge_host ();
             v
           do
             Coherence.next_iteration coh;
             try Value.scoped env (fun () -> exec_ts b)
             with Eval.Continue_exc -> ()
           done
         with Eval.Break_exc -> ());
        Coherence.exit_loop coh
    | Tfor (init, cond, step, b) ->
        Value.scoped env (fun () ->
            Option.iter (Eval.exec ctx) init;
            charge_host ();
            Coherence.enter_loop coh (loop_label init s.tid);
            let continue_ () =
              match cond with
              | Some c ->
                  let v = Value.truthy (Eval.eval ctx c) in
                  charge_host ();
                  v
              | None -> true
            in
            (try
               while continue_ () do
                 Coherence.next_iteration coh;
                 (try Value.scoped env (fun () -> exec_ts b)
                  with Eval.Continue_exc -> ());
                 Option.iter (Eval.exec ctx) step;
                 charge_host ()
               done
             with Eval.Break_exc -> ());
            Coherence.exit_loop coh)
    | Talloc (v, site) ->
        (* present-or-create: keep an existing buffer resident.  A device
           set broadcasts the allocation to every alive member. *)
        let need_alloc =
          (not (Hashtbl.mem host_only v))
          && List.exists
               (fun dev -> not (Gpusim.Device.is_allocated dev v))
               (alive_members ())
        in
        if need_alloc then begin
          charge_host ();
          in_span Obs.Trace.Alloc site.site_label
            ~loc:site.site_loc
            ~directive:site.site_label
          @@ fun () ->
          let host = Value.array_buf env v in
          (* A demoted array stays host-resident; kernels touching it take
             the CPU-fallback path. *)
          let alloc_on dev =
            let rec attempt n =
              try Gpusim.Device.alloc dev v ~like:host
              with Gpusim.Device.Device_fault fault ->
                on_data_fault dev v n fault ~retry:attempt
            in
            attempt 0
          in
          List.iter
            (fun dev ->
              if
                Gpusim.Device.alive dev
                && (not (Hashtbl.mem host_only v))
                && not (Gpusim.Device.is_allocated dev v)
              then alloc_on dev)
            (alive_members ())
        end
    | Tfree (v, site) ->
        charge_host ();
        in_span Obs.Trace.Free site.site_label
          ~loc:site.site_loc
          ~directive:site.site_label
        @@ fun () ->
        List.iter
          (fun dev ->
            if Gpusim.Device.is_allocated dev v then Gpusim.Device.free dev v)
          (alive_members ());
        Hashtbl.remove host_only v;
        Hashtbl.remove mirrors v;
        Hashtbl.remove fresh_on v;
        if coherence then Coherence.on_free coh v
    | Txfer x ->
        let range =
          match (x.x_lo, x.x_len) with
          | Some lo, Some len -> Some (eval_int lo, eval_int len)
          | _ -> None
        in
        (* A subarray must lie inside the host buffer: reject it before
           any transfer state moves. *)
        (match range with
        | Some (lo, len) ->
            let n = Gpusim.Buf.length (Value.array_buf env x.x_var) in
            if lo < 0 || len < 0 || lo + len > n then
              Value.error
                "subarray %s[%d:%d] at %s (%a) is outside the %d element(s) \
                 of '%s'"
                x.x_var lo len x.x_site.site_label Minic.Loc.pp
                x.x_site.site_loc n x.x_var
        | None -> ());
        (* So must the array be present on every member about to copy it:
           an update of data no region allocated names its site. *)
        if not (Hashtbl.mem host_only x.x_var) then
          List.iter
            (fun dev ->
              if not (Gpusim.Device.is_allocated dev x.x_var) then
                Value.error
                  "%s (%a) transfers '%s', which is not present on device %d"
                  x.x_site.site_label Minic.Loc.pp x.x_site.site_loc x.x_var
                  dev.Gpusim.Device.id)
            (match x.x_dir with
            | H2D -> alive_members ()
            | D2H -> download_sources x.x_var);
        charge_host ();
        let async = eval_async x.x_async in
        Hashtbl.replace site_execs x.x_site.site_id
          (1 + Option.value ~default:0
                 (Hashtbl.find_opt site_execs x.x_site.site_id));
        Hashtbl.replace sites x.x_site.site_id (x.x_site, x.x_var, x.x_dir);
        bump "transfers";
        in_span Obs.Trace.Transfer x.x_site.site_label
          ~loc:x.x_site.site_loc
          ~directive:x.x_site.site_label
        @@ fun () ->
        let host = Value.array_buf env x.x_var in
        (* Ledger attribution for the transfers this site is about to
           perform.  Redundancy is the pre-transfer coherence state of the
           destination copy, so it must be read *before* [on_transfer]
           moves the lattice. *)
        (match ledger with
        | None -> ()
        | Some _ ->
            let redundant =
              if not coherence then fun _ -> false
              else
                match x.x_dir with
                | H2D ->
                    let fresh =
                      List.filter
                        (fun d -> Coherence.gpu_status coh x.x_var d = Not_stale)
                        (Gpusim.Device_set.alive_ids devset)
                    in
                    fun d -> List.mem d fresh
                | D2H ->
                    let r = Coherence.get coh x.x_var Cpu = Not_stale in
                    fun _ -> r
            in
            attr :=
              { cause =
                  (match x.x_dir with
                  | H2D -> Obs.Ledger.Copyin
                  | D2H ->
                      if multi then Obs.Ledger.Gather else Obs.Ledger.Copyout);
                site = x.x_site.site_label;
                loc = Minic.Loc.to_string x.x_site.site_loc;
                exec =
                  Option.value ~default:0
                    (Hashtbl.find_opt site_execs x.x_site.site_id);
                redundant;
                hoist = Hashtbl.mem (clean x.x_dir) x.x_var });
        if coherence then begin
          Coherence.register_len coh x.x_var (Gpusim.Buf.length host);
          Coherence.on_transfer ?range coh x.x_var x.x_dir ~site:x.x_site
        end;
        if not (Hashtbl.mem host_only x.x_var) then begin
          let h2d0 = metrics.Gpusim.Metrics.bytes_h2d
          and d2h0 = metrics.Gpusim.Metrics.bytes_d2h in
          (* Per-member child spans: in a multi-member run each member's
             share of a broadcast/gather is a [Transfer] leaf on its own
             lane, timed by that member's accumulator. *)
          let member_xfer dev =
            let m = dev.Gpusim.Device.metrics in
            let t0 = m.Gpusim.Metrics.host_clock in
            do_transfer dev x.x_var ~dir:x.x_dir ~label:x.x_site.site_label
              ~host ~range ~async;
            match obs with
            | Some tr when multi ->
                Obs.Trace.leaf tr Obs.Trace.Transfer x.x_site.site_label
                  ~loc:(Minic.Loc.to_string x.x_site.site_loc)
                  ~directive:x.x_site.site_label ~dev:dev.Gpusim.Device.id
                  ~start:t0
                  ~duration:(m.Gpusim.Metrics.host_clock -. t0) ()
            | Some _ | None -> ()
          in
          (match x.x_dir with
          | H2D ->
              (* Broadcast: every alive member refreshes its copy; each
                 charges its own DMA engine, so the wall-clock cost is the
                 primary's transfer (parallel broadcast). *)
              List.iter
                (fun dev ->
                  if
                    Gpusim.Device.alive dev
                    && not (Hashtbl.mem host_only x.x_var)
                  then member_xfer dev)
                (alive_members ());
              if not (Hashtbl.mem host_only x.x_var) then
                Hashtbl.replace fresh_on x.x_var
                  (Gpusim.Device_set.alive_ids devset)
          | D2H ->
              (* Download from a member holding a fresh copy, rotating across
                 the fresh set (every fresh copy is bit-identical by
                 construction, so the gather is charged to rotating DMA
                 engines); a member dying mid-download is replayed on the
                 next candidate. *)
              let rec pull () =
                let candidates = download_sources x.x_var in
                match candidates with
                | [] -> ()
                | _ :: _ ->
                    let dev =
                      List.nth candidates
                        (!gather_rr mod List.length candidates)
                    in
                    incr gather_rr;
                    member_xfer dev;
                    (match ilog with
                    | None -> ()
                    | Some il ->
                        let elems =
                          match range with
                          | Some (_, len) -> len
                          | None -> Gpusim.Buf.length host
                        in
                        let per_elem =
                          Gpusim.Buf.bytes host
                          / max 1 (Gpusim.Buf.length host)
                        in
                        let bytes = elems * per_elem in
                        Obs.Imbalance.note_gather il ~bytes
                          ~time:
                            (Gpusim.Costmodel.transfer_time cmodel ~bytes
                               ~noise:0.0));
                    if
                      (not (Gpusim.Device.alive dev))
                      && not (Hashtbl.mem host_only x.x_var)
                    then pull ()
              in
              pull ());
          (* The transfer satisfied whatever host access preceded it, and
             leaves host and device coherent. *)
          Hashtbl.replace (clean x.x_dir) x.x_var ();
          Hashtbl.remove mirrors x.x_var;
          (* Byte traffic becomes trace counters, so profiles (and their
             diffs) carry byte deltas alongside the time categories. *)
          match obs with
          | None -> ()
          | Some tr ->
              let dh = metrics.Gpusim.Metrics.bytes_h2d - h2d0
              and dd = metrics.Gpusim.Metrics.bytes_d2h - d2h0 in
              if dh > 0 then Obs.Trace.count tr "bytes_h2d" dh;
              if dd > 0 then Obs.Trace.count tr "bytes_d2h" dd
        end
    | Tlaunch (kid, async) ->
        let k = tp.kernels.(kid) in
        let async = eval_async async in
        charge_host ();
        bump "launches";
        in_span Obs.Trace.Kernel k.k_name
          ~loc:k.k_loc ~directive:k.k_name
        @@ fun () -> launch_resilient k async
    | Twait e ->
        let q = eval_async e in
        charge_host ();
        in_span Obs.Trace.Wait "wait" @@ fun () ->
        Array.iter
          (fun dev -> Gpusim.Device.wait dev q)
          devset.Gpusim.Device_set.devices
    | Tcheck c ->
        if coherence then begin
          charge_host ();
          bump "checks";
          in_span Obs.Trace.Check
            (match c with
            | Check_read _ -> "check-read"
            | Check_write _ -> "check-write"
            | Reset_status _ -> "reset-status")
          @@ fun () ->
          (* Host checks are placed on accessed names; resolve a pointer to
             the root it currently designates. *)
          let resolve v =
            match Value.lookup env v with
            | Some (Value.Array slot) ->
                (match slot.Value.buf with
                | Some b ->
                    Coherence.register_len coh slot.Value.root
                      (Gpusim.Buf.length b)
                | None -> ());
                slot.Value.root
            | Some (Value.Scalar _) | None -> v
          in
          (match c with
          | Check_read (v, dev) ->
              let v = resolve v in
              if dev = Cpu then Hashtbl.remove down_clean v;
              Coherence.check_read ~sid:s.tsid coh v dev
          | Check_write (v, dev) ->
              let v = resolve v in
              if dev = Cpu then Hashtbl.remove up_clean v;
              Coherence.check_write ~sid:s.tsid coh v dev
          | Reset_status (v, dev, st) -> Coherence.reset_status coh v dev st);
          metrics.Gpusim.Metrics.checks <- metrics.Gpusim.Metrics.checks + 1;
          Gpusim.Device.charge device Gpusim.Metrics.Check_overhead
            cmodel.Gpusim.Costmodel.check_cost
        end
  and exec_ts b = List.iter exec_t b in

  in_span Obs.Trace.Phase "run" (fun () ->
      (try exec_ts tp.body with
      | Eval.Return_exc _ -> ());
      charge_host ();
      (* Drain outstanding async work and release device memory (both are
         no-ops on a lost device). *)
      Array.iter
        (fun dev ->
          Gpusim.Device.wait dev None;
          Gpusim.Device.free_all dev)
        devset.Gpusim.Device_set.devices);
  { ctx; device; devset; coherence = coh; tprog = tp; site_execs; sites;
    resilience = stats; imbalance = ilog; compiles = !compiles;
    compile_hits = !compile_hits }

let run ?coherence ?(engine = default.engine) ?(seed = default.seed)
    ?(devices = default.devices) ?obs ?ledger ?kcache:_ tp =
  if Option.fold ~none:false ~some:(( <> ) tp.instrumented) coherence then
    invalid_arg "Interp.run: ~coherence disagrees with the program";
  exec { default with engine; seed; devices }
    { detached with trace = obs; ledger } tp
