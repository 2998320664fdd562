(** The simulated GPU device: memory space, async streams, transfer engine.

    Data movement is performed functionally at submission time; asynchrony is
    modeled in the *timing* domain only (streams with completion times, the
    host blocking at [wait]).  This is sound for programs whose generated
    code synchronizes before dependent host accesses — which is exactly what
    the OpenARC code generator guarantees. *)

type stream = { mutable avail : float  (** completion time of queued work *) }

(** One completed DMA transfer, reported with exactly the bytes the
    metrics accumulator recorded, so an observer conserves bytes by
    construction. *)
type xfer_info = {
  x_name : string;  (** buffer name *)
  x_h2d : bool;
  x_bytes : int;
  x_start : float;
  x_duration : float;
}

(** One allocation event: [m_delta] is the signed byte delta (positive
    alloc, negative free), [m_allocated] the live total after it. *)
type mem_info = {
  m_name : string;
  m_delta : int;
  m_allocated : int;
  m_time : float;
}

(** What the device reports to its observer, in the order it happens. *)
type event =
  | Charge of Metrics.category * float
  | Timeline of Timeline.event
  | Xfer of xfer_info
  | Mem of mem_info

type t = {
  id : int;  (** ordinal within a {!Device_set} (0 when standalone) *)
  cm : Costmodel.t;
  metrics : Metrics.t;
  timeline : Timeline.t;
  mem : (string, Buf.t) Hashtbl.t;
  streams : (int, stream) Hashtbl.t;
  rng : Rng.t;  (** explicit stream for deterministic PCIe jitter *)
  plan : Fault_plan.t;  (** armed device faults (empty by default) *)
  mutable allocated_bytes : int;
  mutable peak_bytes : int;
  mutable observer : (event -> unit) option;
}

let create ?(id = 0) ?(seed = 42) ?(trace = false) ?plan () =
  let plan =
    match plan with Some p -> p | None -> Fault_plan.none ()
  in
  { id; cm = Costmodel.default; metrics = Metrics.create ();
    timeline = Timeline.create ~enabled:trace ();
    mem = Hashtbl.create 32;
    streams = Hashtbl.create 4; rng = Rng.create seed; plan;
    allocated_bytes = 0; peak_bytes = 0; observer = None }

let observe dev f = dev.observer <- Some f

(* The reports below build their event only under an attached observer,
   and a timeline event's label is formatted only when the timeline
   records it, so a detached device formats and allocates nothing for
   observation. *)
let charge dev cat dt =
  Metrics.charge dev.metrics cat dt;
  match dev.observer with None -> () | Some f -> f (Charge (cat, dt))

let record dev ?stream ~kind ~label ~start ~duration () =
  match
    ( Timeline.record dev.timeline ?stream ~kind ~label ~start ~duration (),
      dev.observer )
  with
  | Some e, Some f -> f (Timeline e)
  | _ -> ()

let report_mem dev name delta =
  match dev.observer with
  | None -> ()
  | Some f ->
      f (Mem { m_name = name; m_delta = delta;
               m_allocated = dev.allocated_bytes;
               m_time = dev.metrics.Metrics.host_clock })

(* Deterministic noise in [-1, 1]. *)
let noise dev = Rng.noise dev.rng

let stream dev q =
  match Hashtbl.find_opt dev.streams q with
  | Some s -> s
  | None ->
      let s = { avail = 0.0 } in
      Hashtbl.add dev.streams q s;
      s

exception Device_error of string

let fail fmt = Fmt.kstr (fun m -> raise (Device_error m)) fmt

(** A device fault injected by the plan: the typed error surface the
    resilient runtime recovers from (retry, re-execution, CPU fallback). *)
type fault_info = {
  f_kind : Fault_plan.kind;
  f_target : string;  (** buffer or kernel name *)
  f_op : string;  (** operation underway *)
}

exception Device_fault of fault_info

let () =
  Printexc.register_printer (function
    | Device_fault f ->
        Some
          (Fmt.str "device fault: %s on '%s' during %s"
             (Fault_plan.kind_name f.f_kind) f.f_target f.f_op)
    | _ -> None)

let alive dev = not dev.plan.Fault_plan.lost

(* Record an injected fault on the metrics and timeline (the plan already
   logged it), then build the typed error. *)
let fault_event dev kind ~target ~op =
  dev.metrics.Metrics.faults_injected <-
    dev.metrics.Metrics.faults_injected + 1;
  record dev ~kind:(Timeline.Ev_fault (Fault_plan.kind_name kind))
    ~label:(fun () ->
      Fmt.str "%s(%s) during %s" (Fault_plan.kind_name kind) target op)
    ~start:dev.metrics.Metrics.host_clock ~duration:0.0 ();
  { f_kind = kind; f_target = target; f_op = op }

(* Does the plan inject [kind] at this opportunity? *)
let inject dev kind ~target ~op =
  if
    Fault_plan.fire dev.plan kind ~target ~op
      ~time:dev.metrics.Metrics.host_clock
  then Some (fault_event dev kind ~target ~op)
  else None

(* Fault gate shared by every device entry point: an already-lost device
   rejects all work, and any opportunity may be the one where the device
   drops off the bus. *)
let check_lost dev ~target ~op =
  if dev.plan.Fault_plan.lost then
    raise (Device_fault { f_kind = Fault_plan.Device_lost; f_target = target;
                          f_op = op })
  else
    match inject dev Fault_plan.Device_lost ~target ~op with
    | Some f -> raise (Device_fault f)
    | None -> ()

let is_allocated dev name = Hashtbl.mem dev.mem name

let buffer dev name =
  if dev.plan.Fault_plan.lost then
    raise (Device_fault { f_kind = Fault_plan.Device_lost; f_target = name;
                          f_op = "access" });
  match Hashtbl.find_opt dev.mem name with
  | Some b -> b
  | None -> fail "device buffer '%s' is not allocated" name

(** Allocate a device buffer shaped like [like] (contents zeroed). *)
let alloc dev name ~like =
  if is_allocated dev name then fail "device buffer '%s' already allocated" name;
  check_lost dev ~target:name ~op:"alloc";
  (match inject dev Fault_plan.Oom ~target:name ~op:"alloc" with
  | Some f ->
      (* a failed cudaMalloc still costs the host its round trip *)
      charge dev Metrics.Gpu_alloc (Costmodel.alloc_time dev.cm ~bytes:0);
      raise (Device_fault f)
  | None -> ());
  let b =
    match like with
    | Buf.Fbuf a -> Buf.create_float (Array.length a)
    | Buf.Ibuf a -> Buf.create_int (Array.length a)
  in
  let bytes = Buf.bytes b in
  Hashtbl.add dev.mem name b;
  dev.allocated_bytes <- dev.allocated_bytes + bytes;
  dev.peak_bytes <- max dev.peak_bytes dev.allocated_bytes;
  report_mem dev name bytes;
  let duration = Costmodel.alloc_time dev.cm ~bytes in
  record dev ~kind:(Timeline.Ev_alloc name)
    ~label:(fun () -> Fmt.str "cudaMalloc(%s, %dB)" name bytes)
    ~start:dev.metrics.Metrics.host_clock ~duration ();
  charge dev Metrics.Gpu_alloc duration

(* [free] stays available on a lost device (it is the cleanup path): the
   memory is gone either way, so only the bookkeeping happens. *)
let free dev name =
  match Hashtbl.find_opt dev.mem name with
  | None -> fail "freeing unallocated device buffer '%s'" name
  | Some b ->
      let bytes = Buf.bytes b in
      Hashtbl.remove dev.mem name;
      dev.allocated_bytes <- dev.allocated_bytes - bytes;
      report_mem dev name (-bytes);
      if alive dev then begin
        let duration = Costmodel.free_time dev.cm ~bytes in
        record dev ~kind:(Timeline.Ev_free name)
          ~label:(fun () -> Fmt.str "cudaFree(%s)" name)
          ~start:dev.metrics.Metrics.host_clock ~duration ();
        charge dev Metrics.Gpu_free duration
      end

let free_all dev =
  let names = Hashtbl.fold (fun k _ acc -> k :: acc) dev.mem [] in
  List.iter (free dev) names

(* Charge the timing of a transfer/kernel: synchronous ops block the host;
   async ops enqueue on a stream and cost the host only a submit.
   Returns the event's start time for the timeline. *)
let charge_async dev ~async ~category ~duration =
  match async with
  | None ->
      let start = dev.metrics.Metrics.host_clock in
      charge dev category duration;
      start
  | Some q ->
      let s = stream dev q in
      let start = Float.max dev.metrics.Metrics.host_clock s.avail in
      s.avail <- start +. duration;
      (* submission overhead on the host *)
      charge dev category (dev.cm.Costmodel.kernel_launch /. 5.);
      start

let transfer_bytes ~range buf =
  match range with
  | None -> Buf.bytes buf
  | Some (_, len) -> len * (Buf.bytes buf / max 1 (Buf.length buf))

(* Transfer-fault gate: outright failure (charged the PCIe round trip),
   partial transfer (a prefix of the range lands, then the copy aborts), or
   silent corruption (one bit of the destination range is flipped after a
   complete copy — only an end-to-end checksum can tell). *)
let transfer_faults dev name ~op ~src ~dst ~range =
  check_lost dev ~target:name ~op;
  (match inject dev Fault_plan.Xfer_fail ~target:name ~op with
  | Some f ->
      charge dev Metrics.Mem_transfer dev.cm.Costmodel.pcie_latency;
      raise (Device_fault f)
  | None -> ());
  let lo, len =
    match range with None -> (0, Buf.length src) | Some (lo, len) -> (lo, len)
  in
  (match inject dev Fault_plan.Xfer_partial ~target:name ~op with
  | Some f ->
      Buf.blit_range ~src ~dst ~lo ~len:(len / 2);
      let bytes = transfer_bytes ~range src / 2 in
      charge dev Metrics.Mem_transfer
        (Costmodel.transfer_time dev.cm ~bytes ~noise:(noise dev));
      raise (Device_fault f)
  | None -> ());
  fun () ->
    (* after the copy: silent corruption of the destination range *)
    match inject dev Fault_plan.Xfer_corrupt ~target:name ~op with
    | Some _ when len > 0 ->
        Buf.flip_bit dst
          ~idx:(lo + Fault_plan.rand_int dev.plan len)
          ~bit:(Fault_plan.rand_int dev.plan 52)
    | Some _ | None -> ()

(* One DMA copy between [host] and the device buffer [name], in the
   direction [h2d] names. *)
let transfer dev name ~h2d ~host ?range ?async ?label () =
  let dbuf = buffer dev name in
  let src, dst = if h2d then (host, dbuf) else (dbuf, host) in
  let corrupt =
    transfer_faults dev name ~op:(if h2d then "upload" else "download") ~src
      ~dst ~range
  in
  (match range with
  | None -> Buf.blit ~src ~dst
  | Some (lo, len) -> Buf.blit_range ~src ~dst ~lo ~len);
  corrupt ();
  let bytes = transfer_bytes ~range src in
  (if h2d then Metrics.record_h2d else Metrics.record_d2h) dev.metrics bytes;
  let duration = Costmodel.transfer_time dev.cm ~bytes ~noise:(noise dev) in
  let start = charge_async dev ~async ~category:Metrics.Mem_transfer ~duration in
  record dev ?stream:async
    ~kind:(Timeline.Ev_transfer { var = name; h2d; bytes })
    ~label:(fun () ->
      match label with
      | Some l -> l
      | None -> Fmt.str "memcpy%s(%s)" (if h2d then "in" else "out") name)
    ~start ~duration ();
  match dev.observer with
  | None -> ()
  | Some f ->
      f (Xfer { x_name = name; x_h2d = h2d; x_bytes = bytes;
                x_start = start; x_duration = duration })

(** Host-to-device copy of [host] into the device buffer [name].
    [range = Some (lo, len)] restricts to a subarray. *)
let upload dev name ~host ?range ?async ?label () =
  transfer dev name ~h2d:true ~host ?range ?async ?label ()

(** Device-to-host copy of the device buffer [name] into [host]. *)
let download dev name ~host ?range ?async ?label () =
  transfer dev name ~h2d:false ~host ?range ?async ?label ()

(** Fault gate called before a kernel's functional execution: launch
    errors, watchdog timeouts, and device loss all surface here, before any
    device memory is touched.
    @raise Device_fault when the plan injects a launch-time fault. *)
let begin_launch dev ~label =
  check_lost dev ~target:label ~op:"launch";
  (match inject dev Fault_plan.Launch_fail ~target:label ~op:"launch" with
  | Some f ->
      (* a failed launch costs the submission overhead *)
      charge dev Metrics.Async_wait dev.cm.Costmodel.kernel_launch;
      raise (Device_fault f)
  | None -> ());
  match inject dev Fault_plan.Launch_timeout ~target:label ~op:"launch" with
  | Some f ->
      (* the watchdog lets the kernel hang for a while before killing it *)
      charge dev Metrics.Async_wait (100.0 *. dev.cm.Costmodel.kernel_launch);
      raise (Device_fault f)
  | None -> ()

(** Simulated ECC scrub of the named buffers (called after a kernel's
    functional execution): the plan may flip one bit per armed rule, and
    every flip is detected and returned — the DED half of ECC; silent
    corruption is modeled by [Xfer_corrupt] instead.  Unallocated names are
    skipped. *)
let scrub dev names =
  List.filter_map
    (fun name ->
      match Hashtbl.find_opt dev.mem name with
      | None -> None
      | Some b ->
          if Buf.length b > 0
             && Fault_plan.fire dev.plan Fault_plan.Bit_flip ~target:name
                  ~op:"scrub" ~time:dev.metrics.Metrics.host_clock
          then begin
            Buf.flip_bit b
              ~idx:(Fault_plan.rand_int dev.plan (Buf.length b))
              ~bit:(Fault_plan.rand_int dev.plan 52);
            Some (fault_event dev Fault_plan.Bit_flip ~target:name ~op:"scrub")
          end
          else None)
    names

(** Account for a kernel execution of [iterations] x [ops_per_iter],
    returning the charged (jitter-scaled) duration.  The functional
    execution is done by the runtime interpreter; this charges simulated
    time.  [time] overrides the cost-model base duration — the sharded
    launch path prices each member's shard by its measured share of the
    interpreted work — while the jitter draw and charge/timeline paths
    stay identical to the standalone formula. *)
let launch_timed dev ~iterations ~ops_per_iter ?width ?time ?(jitter = true)
    ?async ?(label = "kernel") () =
  dev.metrics.Metrics.kernel_launches <-
    dev.metrics.Metrics.kernel_launches + 1;
  let duration =
    match time with
    | Some t -> t
    | None -> Costmodel.kernel_time ?width dev.cm ~iterations ~ops_per_iter
  in
  (* Small run-to-run variance, as on real devices; this is what makes very
     light instrumentation occasionally measure as a negative overhead
     (paper Figure 4).  [jitter:false] keeps the duration exactly as
     priced — the sharded launch path uses it so a schedule's measured
     wall time equals the analyzer's noise-free re-costing. *)
  let duration =
    if jitter then duration *. (1.0 +. (0.06 *. noise dev)) else duration
  in
  let start =
    match async with
    | None ->
        let start = dev.metrics.Metrics.host_clock in
        charge dev Metrics.Async_wait duration;
        start
    | Some _ -> charge_async dev ~async ~category:Metrics.Cpu_time ~duration
  in
  record dev ?stream:async
    ~kind:(Timeline.Ev_kernel { name = label; iterations })
    ~label:(fun () -> Fmt.str "%s<<<%d>>>" label iterations)
    ~start ~duration ();
  duration

(** [launch_timed] for callers that don't consume the duration; the RNG
    draw sequence is identical. *)
let launch dev ~iterations ~ops_per_iter ?width ?async ?label () =
  ignore
    (launch_timed dev ~iterations ~ops_per_iter ?width ?async ?label ()
      : float)

(** Push stream [q]'s completion time out by [dt] simulated seconds: the
    completion barrier of a sharded async launch — the primary's queue
    cannot drain before the slowest member's shard does. *)
let delay_stream dev q dt =
  if alive dev && dt > 0.0 then begin
    let s = stream dev q in
    s.avail <- Float.max s.avail dev.metrics.Metrics.host_clock +. dt
  end

(** Block the host until stream [q] (or all streams when [None]) drains.
    Waiting on a lost device returns immediately: there is no work left to
    wait for. *)
let wait dev q =
  if not (alive dev) then ()
  else
  let streams =
    match q with
    | Some q -> [ stream dev q ]
    | None -> Hashtbl.fold (fun _ s acc -> s :: acc) dev.streams []
  in
  let target =
    List.fold_left (fun acc s -> Float.max acc s.avail)
      dev.metrics.Metrics.host_clock streams
  in
  let dt = target -. dev.metrics.Metrics.host_clock in
  if dt > 0.0 then begin
    record dev ~kind:Timeline.Ev_wait ~label:(fun () -> "wait")
      ~start:dev.metrics.Metrics.host_clock ~duration:dt ();
    charge dev Metrics.Async_wait dt
  end
