(** Shard-level cost attribution and schedule analysis for sharded
    kernel launches.

    The multi-device runtime records, for every sharded launch, the
    measured per-iteration work (interpreted operations), the per-shard
    charged durations, the host idle time at the completion barrier and
    the modeled merge/gather overheads.  This module aggregates those
    records per kernel — imbalance factor (max/mean shard cost),
    idle-at-barrier time, merge/gather overhead share, exact shard-
    duration percentiles — and *re-costs* the recorded iteration-space
    weights under the alternative split to answer the scheduling
    question directly: would [cyclic] beat [block] here?

    The re-coster mirrors the runtime's work-conserving shard pricing: a
    launch's compute budget is the full-iteration-space kernel time, each
    member's shard costs its measured share of the interpreted work, and
    the launch completes when its most loaded member does.  Predictions
    are noise-free, so the verdict depends only on the recorded weights —
    the same inputs under both schedules.

    The records are plain data (ints, floats, strings); re-costing splits
    the recorded iteration weights with the device set's own
    {!Gpusim.Device_set.owner}. *)

type shard = {
  sh_part : int;  (** shard index within the launch *)
  sh_dev : int;  (** member ordinal that finally executed it *)
  sh_iters : int;  (** iterations it owned *)
  sh_ops : int;  (** measured interpreted operations of those iterations *)
  sh_time : float;  (** charged duration (priced without jitter) *)
  sh_failover : bool;  (** executed by a survivor after device loss *)
}

type launch = {
  l_kernel : string;
  l_loc : string;
  l_parts : int;
  l_total : int;  (** iteration-space size *)
  l_weights : int array;  (** measured ops per iteration ordinal *)
  l_unit : float;  (** seconds per measured operation (work-conserving) *)
  l_overhead : float;  (** fixed per-launch cost (launch latency) *)
  l_shards : shard array;  (** indexed by shard/part *)
  l_barrier : float;  (** host idle charged at the completion barrier *)
  l_wall : float;  (** slowest member's busy time this launch *)
  l_merge : float;  (** modeled reduction-merge cost *)
  l_merge_bytes : int;
}

type t = {
  i_devices : int;
  i_schedule : string;  (** "block" | "cyclic" — the split actually run *)
  mutable launches_rev : launch list;
  mutable gather_time : float;  (** modeled D2H gather cost *)
  mutable gather_bytes : int;
}

let create ~devices ~schedule =
  { i_devices = devices; i_schedule = schedule; launches_rev = [];
    gather_time = 0.0; gather_bytes = 0 }

let record t l = t.launches_rev <- l :: t.launches_rev

let note_gather t ~bytes ~time =
  t.gather_bytes <- t.gather_bytes + bytes;
  t.gather_time <- t.gather_time +. time

let launches t = List.rev t.launches_rev

(* The most loaded member's share of the measured work under [schedule] —
   the schedule-sensitive part of a launch's completion time. *)
let predict_work l ~schedule =
  let parts = l.l_parts in
  let per = Array.make (Int.max 1 parts) 0 in
  Array.iteri
    (fun i w ->
      let p = Gpusim.Device_set.owner schedule ~parts ~total:l.l_total i in
      per.(p) <- per.(p) + w)
    l.l_weights;
  let heaviest = Array.fold_left Int.max 0 per in
  l.l_unit *. float_of_int heaviest

(* Noise-free completion time of [l] under [schedule]: the launch ends
   when its most loaded member does. *)
let predict l ~schedule = l.l_overhead +. predict_work l ~schedule

(* ----------------------------- analysis ----------------------------- *)

type report = {
  r_kernel : string;
  r_loc : string;
  r_launches : int;
  r_imbalance : float;  (** max/mean shard cost, launch-summed *)
  r_idle : float;  (** total idle-at-barrier *)
  r_merge : float;  (** total modeled merge cost *)
  r_merge_share : float;  (** merge / (wall + merge) *)
  r_wall : float;  (** total slowest-member busy time *)
  r_p50 : float;
  r_p95 : float;
  r_p99 : float;  (** exact percentiles over shard durations *)
  r_failovers : int;
  r_pred_block : float;
  r_pred_cyclic : float;  (** re-costed totals under each schedule *)
  r_recommended : string;
  r_verdict : string;  (** ["keep"] or ["switch"] *)
  r_gain : float;  (** predicted relative saving of the recommendation *)
}

type analysis = {
  a_devices : int;
  a_schedule : string;
  a_kernels : report list;  (** first-launch order *)
  a_gather_time : float;
  a_gather_bytes : int;
  a_pred_block : float;
  a_pred_cyclic : float;
  a_recommended : string;
  a_gain : float;  (** program-level relative saving vs the run schedule *)
}

(* A switch must be material: within half a percent of the
   schedule-sensitive work the current schedule is kept.  The launch
   overhead is schedule-invariant, so the verdict compares only the
   most-loaded member's work share under each split — the part a
   schedule change can actually move. *)
let materiality = 0.995

let other_schedule = function "cyclic" -> "block" | _ -> "cyclic"

let kernel_report t (kernel, loc) ls =
  let ls = Array.of_list ls in
  let sum f = Array.fold_left (fun acc l -> acc +. f l) 0.0 ls in
  let maxes =
    sum (fun l ->
        Array.fold_left (fun m s -> Float.max m s.sh_time) 0.0 l.l_shards)
  in
  let means =
    sum (fun l ->
        let n = Int.max 1 (Array.length l.l_shards) in
        Array.fold_left (fun a s -> a +. s.sh_time) 0.0 l.l_shards
        /. float_of_int n)
  in
  let wall = sum (fun l -> l.l_wall) in
  let merge = sum (fun l -> l.l_merge) in
  let durations =
    Array.concat
      (Array.to_list
         (Array.map (fun l -> Array.map (fun s -> s.sh_time) l.l_shards) ls))
  in
  let pred_block = sum (predict ~schedule:Gpusim.Device_set.Block) in
  let pred_cyclic = sum (predict ~schedule:Gpusim.Device_set.Cyclic) in
  let work_block = sum (predict_work ~schedule:Gpusim.Device_set.Block) in
  let work_cyclic = sum (predict_work ~schedule:Gpusim.Device_set.Cyclic) in
  let current =
    if t.i_schedule = "cyclic" then work_cyclic else work_block
  in
  let alt = if t.i_schedule = "cyclic" then work_block else work_cyclic in
  let switch = current > 0.0 && alt < materiality *. current in
  { r_kernel = kernel;
    r_loc = loc;
    r_launches = Array.length ls;
    r_imbalance = (if means > 0.0 then maxes /. means else 1.0);
    r_idle = sum (fun l -> l.l_barrier);
    r_merge = merge;
    r_merge_share =
      (if wall +. merge > 0.0 then merge /. (wall +. merge) else 0.0);
    r_wall = wall;
    r_p50 = Stats.percentile durations 0.50;
    r_p95 = Stats.percentile durations 0.95;
    r_p99 = Stats.percentile durations 0.99;
    r_failovers =
      Array.fold_left
        (fun acc l ->
          Array.fold_left
            (fun a s -> if s.sh_failover then a + 1 else a)
            acc l.l_shards)
        0 ls;
    r_pred_block = pred_block;
    r_pred_cyclic = pred_cyclic;
    r_recommended = (if switch then other_schedule t.i_schedule
                     else t.i_schedule);
    r_verdict = (if switch then "switch" else "keep");
    r_gain = (if switch then (current -. alt) /. current else 0.0) }

let analyze t =
  let order_rev = ref [] in
  let groups = Hashtbl.create 8 in
  List.iter
    (fun l ->
      let key = (l.l_kernel, l.l_loc) in
      (match Hashtbl.find_opt groups key with
      | Some ls -> Hashtbl.replace groups key (l :: ls)
      | None ->
          Hashtbl.add groups key [ l ];
          order_rev := key :: !order_rev))
    (launches t);
  let kernels =
    List.rev_map
      (fun key -> kernel_report t key (List.rev (Hashtbl.find groups key)))
      !order_rev
  in
  let sum f = List.fold_left (fun acc r -> acc +. f r) 0.0 kernels in
  let pred_block = sum (fun r -> r.r_pred_block) in
  let pred_cyclic = sum (fun r -> r.r_pred_cyclic) in
  let work schedule =
    List.fold_left
      (fun acc l -> acc +. predict_work l ~schedule)
      0.0 (launches t)
  in
  let work_block = work Gpusim.Device_set.Block
  and work_cyclic = work Gpusim.Device_set.Cyclic in
  let current =
    if t.i_schedule = "cyclic" then work_cyclic else work_block
  in
  let alt = if t.i_schedule = "cyclic" then work_block else work_cyclic in
  let switch = current > 0.0 && alt < materiality *. current in
  { a_devices = t.i_devices;
    a_schedule = t.i_schedule;
    a_kernels = kernels;
    a_gather_time = t.gather_time;
    a_gather_bytes = t.gather_bytes;
    a_pred_block = pred_block;
    a_pred_cyclic = pred_cyclic;
    a_recommended = (if switch then other_schedule t.i_schedule
                     else t.i_schedule);
    a_gain = (if switch then (current -. alt) /. current else 0.0) }

(* ------------------------------- export ----------------------------- *)

let schema = Trace.schema ^ ".imbalance"
let version = 1

(* Percentiles of an empty shard population print as 0 (JSON has no
   NaN); it only happens when no sharded kernel ran. *)
let num x = if Float.is_nan x then Pjson.Num "0.0" else Pjson.fixed 9 x

let report_json r =
  Pjson.Obj
    [ ("kernel", Pjson.Str r.r_kernel); ("loc", Pjson.Str r.r_loc);
      ("launches", Pjson.int r.r_launches);
      ("imbalance", Pjson.fixed 4 r.r_imbalance); ("idle_s", num r.r_idle);
      ("merge_s", num r.r_merge);
      ("merge_share", Pjson.fixed 4 r.r_merge_share);
      ("wall_s", num r.r_wall); ("p50_s", num r.r_p50);
      ("p95_s", num r.r_p95); ("p99_s", num r.r_p99);
      ("failovers", Pjson.int r.r_failovers);
      ("pred_block_s", num r.r_pred_block);
      ("pred_cyclic_s", num r.r_pred_cyclic);
      ("recommended", Pjson.Str r.r_recommended);
      ("verdict", Pjson.Str r.r_verdict); ("gain", Pjson.fixed 4 r.r_gain) ]

let json ~name ~seed a =
  Pjson.Obj
    [ ("schema", Pjson.Str schema); ("version", Pjson.int version);
      ("name", Pjson.Str name); ("seed", Pjson.int seed);
      ("devices", Pjson.int a.a_devices);
      ("schedule", Pjson.Str a.a_schedule);
      ("kernels", Pjson.Arr (List.map report_json a.a_kernels));
      ("gather_bytes", Pjson.int a.a_gather_bytes);
      ("gather_s", num a.a_gather_time);
      ("pred_block_s", num a.a_pred_block);
      ("pred_cyclic_s", num a.a_pred_cyclic);
      ("recommended", Pjson.Str a.a_recommended);
      ("gain", Pjson.fixed 4 a.a_gain) ]

let pp ppf a =
  Fmt.pf ppf
    "shard imbalance analysis (%d device(s), schedule %s)@.@.  %-16s \
     %8s %6s %11s %11s %11s %11s %8s  %s@."
    a.a_devices a.a_schedule "kernel" "launches" "imbal" "idle-s"
    "merge-share" "pred-block" "pred-cyclic" "verdict" "recommend";
  List.iter
    (fun r ->
      Fmt.pf ppf "  %-16s %8d %6.2f %11.9f %11.4f %11.9f %11.9f %8s  %s%s@."
        r.r_kernel r.r_launches r.r_imbalance r.r_idle r.r_merge_share
        r.r_pred_block r.r_pred_cyclic r.r_verdict r.r_recommended
        (if r.r_verdict = "switch" then
           Fmt.str " (-%.1f%%)" (100.0 *. r.r_gain)
         else ""))
    a.a_kernels;
  Fmt.pf ppf
    "@.  gather: %d byte(s), %.9f s modeled@.  program predicted: block \
     %.9f s, cyclic %.9f s -> %s%s@."
    a.a_gather_bytes a.a_gather_time a.a_pred_block a.a_pred_cyclic
    a.a_recommended
    (if a.a_gain > 0.0 then Fmt.str " (predicted -%.1f%%)"
         (100.0 *. a.a_gain)
     else "")
