(** Recovery policies for injected device faults.

    The resilient runtime (in {!Interp}) hands every device fault it
    catches to {!decide}: bounded retry with exponential backoff for
    transient transfer/allocation errors, checksum-verified re-transfer
    for silent corruption, kernel re-execution from a checkpoint for launch
    faults and detected ECC bit flips, failover of a lost member's work,
    and graceful CPU fallback — executing the original sequential region —
    when a retry budget runs out or no device is left.  Every recovered
    launch is validated against the §III-A sequential reference, so a
    policy never converts a detected fault into a silently wrong answer. *)

type policy = Off | Retry | Full

let name = function Off -> "none" | Retry -> "retry" | Full -> "full"

let of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "none" -> Ok Off
  | "retry" -> Ok Retry
  | "full" | "fallback" -> Ok Full
  | other ->
      Error
        (Fmt.str "unknown resilience policy '%s' (expected none|retry|full)"
           other)

let recovers = function Off -> false | Retry | Full -> true
let falls_back = function Full -> true | Off | Retry -> false
let max_retries = 3
let backoff attempt = 1e-4 *. float_of_int (1 lsl attempt)

type decision = Member_lost | Reattempt | Exhausted | Propagate

let decide policy kind ~attempt =
  match (policy, kind) with
  | Off, _ -> Propagate
  | (Retry | Full), Gpusim.Fault_plan.Device_lost -> Member_lost
  | (Retry | Full), _ when attempt < max_retries -> Reattempt
  | (Retry | Full), _ -> Exhausted

(** One recovery decision taken by the runtime. *)
type entry = {
  l_fault : Gpusim.Fault_plan.kind;
  l_target : string;
  l_op : string;
  l_action : string;  (** "retry", "re-transfer", "re-execute", ... *)
  l_ok : bool;
}

type stats = {
  mutable retries : int;  (** transfer/allocation retries *)
  mutable retransfers : int;  (** checksum-mismatch re-transfers *)
  mutable reexecs : int;  (** kernel re-executions from checkpoint *)
  mutable fallbacks : int;  (** kernels degraded to the sequential region *)
  mutable failovers : int;
      (** shards of a lost device re-executed on surviving devices *)
  mutable devices_lost : int;  (** device-set members lost to [Device_lost] *)
  mutable verified : int;  (** recoveries validated against the reference *)
  mutable unrecovered : int;
  mutable device_lost : bool;  (** the run degraded to host mode *)
  mutable log : entry list;  (** reversed; use {!log_entries} *)
}

let fresh_stats () =
  { retries = 0; retransfers = 0; reexecs = 0; fallbacks = 0; failovers = 0;
    devices_lost = 0; verified = 0; unrecovered = 0; device_lost = false;
    log = [] }

let log_entries s = List.rev s.log

let record s ~fault ~action ~ok =
  s.log <-
    { l_fault = fault.Gpusim.Device.f_kind;
      l_target = fault.Gpusim.Device.f_target;
      l_op = fault.Gpusim.Device.f_op; l_action = action; l_ok = ok }
    :: s.log

(** A fault the active policy could not mask: the run's results are not
    trustworthy past this point. *)
exception Unrecovered of Gpusim.Device.fault_info

let () =
  Printexc.register_printer (function
    | Unrecovered f ->
        Some
          (Fmt.str "unrecovered device fault: %s on '%s' during %s"
             (Gpusim.Fault_plan.kind_name f.Gpusim.Device.f_kind)
             f.Gpusim.Device.f_target f.Gpusim.Device.f_op)
    | _ -> None)

let recoveries s =
  s.retries + s.retransfers + s.reexecs + s.fallbacks + s.failovers

(* ------------------------------ report ------------------------------ *)

let pp_entry ppf e =
  Fmt.pf ppf "%s on '%s' during %s -> %s (%s)"
    (Gpusim.Fault_plan.kind_name e.l_fault)
    e.l_target e.l_op e.l_action
    (if e.l_ok then "ok" else "failed")

(** Per-run fault/recovery report: seed and spec first, so a report is a
    complete reproduction recipe. *)
let pp_report ~seed ~plan ~policy ~metrics ppf s =
  Fmt.pf ppf "@[<v>fault/recovery report (seed %d, policy %s)" seed
    (name policy);
  let spec = Gpusim.Fault_plan.to_spec plan in
  Fmt.pf ppf "@,plan: %s" (if spec = "" then "(none)" else spec);
  let events = Gpusim.Fault_plan.events plan in
  Fmt.pf ppf "@,injected: %d fault(s)" (List.length events);
  List.iter
    (fun e -> Fmt.pf ppf "@,  %a" Gpusim.Fault_plan.pp_event e)
    events;
  Fmt.pf ppf
    "@,recovery: %d retries, %d re-transfers, %d re-executions, %d CPU \
     fallbacks"
    s.retries s.retransfers s.reexecs s.fallbacks;
  if s.failovers > 0 || s.devices_lost > 0 then
    Fmt.pf ppf
      "@,failover: %d device(s) lost, %d shard(s) re-executed on survivors"
      s.devices_lost s.failovers;
  Fmt.pf ppf "@,verified: %d recovery(ies) matched the sequential reference"
    s.verified;
  if s.device_lost then Fmt.pf ppf "@,device lost: continued in host mode";
  Fmt.pf ppf "@,unrecovered: %d" s.unrecovered;
  Fmt.pf ppf "@,recovery time: %.6f s"
    (Gpusim.Metrics.time_of metrics Gpusim.Metrics.Fault_recovery);
  (match log_entries s with
  | [] -> ()
  | log ->
      Fmt.pf ppf "@,log:";
      List.iter (fun e -> Fmt.pf ppf "@,  %a" pp_entry e) log);
  Fmt.pf ppf "@]"

let report_json ~seed ~plan ~policy ~metrics s =
  let module P = Obs.Pjson in
  let kind k = P.Str (Gpusim.Fault_plan.kind_name k) in
  let event (e : Gpusim.Fault_plan.event) =
    P.Obj
      [ ("kind", kind e.e_kind); ("target", P.Str e.e_target);
        ("op", P.Str e.e_op); ("time", P.fixed 9 e.e_time) ]
  in
  let entry e =
    P.Obj
      [ ("fault", kind e.l_fault); ("target", P.Str e.l_target);
        ("op", P.Str e.l_op); ("action", P.Str e.l_action);
        ("ok", P.Bool e.l_ok) ]
  in
  let events = Gpusim.Fault_plan.events plan in
  P.to_string
    (P.Obj
       [ ("seed", P.int seed); ("policy", P.Str (name policy));
         ("plan", P.Str (Gpusim.Fault_plan.to_spec plan));
         ("injected", P.int (List.length events));
         ("events", P.Arr (List.map event events));
         ( "recovery",
           P.Obj
             [ ("retries", P.int s.retries);
               ("retransfers", P.int s.retransfers);
               ("reexecs", P.int s.reexecs); ("fallbacks", P.int s.fallbacks);
               ("failovers", P.int s.failovers);
               ("devices_lost", P.int s.devices_lost);
               ("verified", P.int s.verified);
               ("unrecovered", P.int s.unrecovered);
               ("device_lost", P.Bool s.device_lost) ] );
         ( "recovery_time",
           P.fixed 9
             (Gpusim.Metrics.time_of metrics Gpusim.Metrics.Fault_recovery) );
         ("log", P.Arr (List.map entry (log_entries s))) ])
