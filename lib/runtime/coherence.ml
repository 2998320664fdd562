(** Runtime coherence tracking (§III-B).

    Each tracked array carries one status per device in
    {notstale, maystale, stale}.  The default granularity is the whole
    buffer, as in the paper; the optional {!Fine} mode tracks staleness as
    element-interval sets instead — the finer-granularity alternative the
    paper weighs against tracking cost (it catches partial-transfer bugs the
    coarse scheme cannot, e.g. a subarray [update] that appears to freshen
    the whole array).  The inserted runtime calls drive the state machine
    and emit reports:

    - [check_read v dev]: a stale copy about to be read means a transfer is
      missing; may-stale means may-missing.
    - [check_write v dev]: writing a stale copy is only *may*-missing (the
      write may fully overwrite); afterwards the local copy is fresh and the
      remote copy is stale (unless a following [reset_status] knows the
      remote copy is dead).
    - a transfer whose source is stale is {e incorrect}; one whose target is
      already not-stale is {e redundant}; a may-stale target (set by may-dead
      analysis) makes it {e may-redundant}.
    - [reset_status] overrides a device's status from the compiler's deadness
      facts; deallocating a device buffer makes that copy stale. *)

open Codegen.Tprog

type kind = Missing | May_missing | Incorrect | Redundant | May_redundant

let kind_name = function
  | Missing -> "missing"
  | May_missing -> "may-missing"
  | Incorrect -> "incorrect"
  | Redundant -> "redundant"
  | May_redundant -> "may-redundant"

type report = {
  r_kind : kind;
  r_var : string;
  r_site : site option;  (** transfer site, when the event is a transfer *)
  r_sid : int;  (** source statement the event traces back to (-1 unknown) *)
  r_dev : device option;  (** device whose copy was stale (missing reports) *)
  r_desc : string;
  r_loops : (string * int) list;  (** enclosing host loops, outermost first *)
}

let pp_report ppf r =
  let loops ppf = function
    | [] -> ()
    | ls ->
        Fmt.pf ppf " (%a)"
          (Fmt.list ~sep:(Fmt.any ", ")
             (fun ppf (v, i) -> Fmt.pf ppf "enclosing loop %s index = %d" v i))
          ls
  in
  Fmt.pf ppf "[%s] %s%a" (kind_name r.r_kind) r.r_desc loops r.r_loops

type granularity = Coarse | Fine

type dev_state = {
  mutable status : status;  (** coarse summary *)
  mutable stale_iv : Intervals.t;  (** fine mode: stale element ranges *)
  mutable may_iv : Intervals.t;  (** fine mode: may-stale element ranges *)
}

type var_state = {
  cpu : dev_state;
  gpu : dev_state;  (** device 0's copy; physically [gpus.(0)] *)
  gpus : dev_state array;  (** one state per device-set member *)
  mutable len : int;
}

type t = {
  granularity : granularity;
  ndevices : int;  (** device-set size; 1 = the paper's single device *)
  alive_gpus : bool array;  (** per-device liveness, updated on loss *)
  states : (string, var_state) Hashtbl.t;
  mutable reports : report list;  (** reversed *)
  mutable loop_stack : (string * int) list;  (** innermost first *)
  mutable checks_executed : int;
  mutable interval_ops : int;
      (** fine-mode tracking work: interval pieces touched (the cost the
          paper's granularity discussion worries about) *)
  audit : Obs.Audit.t option;  (** records every status transition *)
  now : unit -> float;  (** simulated clock for audit timestamps *)
  mutable cur_op : string;  (** runtime call currently driving transitions *)
  mutable cur_point : string;  (** program point of that call *)
}

let create ?(granularity = Coarse) ?audit ?(now = fun () -> 0.0)
    ?(devices = 1) () =
  let devices = max 1 devices in
  { granularity; ndevices = devices; alive_gpus = Array.make devices true;
    states = Hashtbl.create 32; reports = []; loop_stack = [];
    checks_executed = 0; interval_ops = 0; audit; now; cur_op = "";
    cur_point = "" }

let fresh_dev () =
  { status = Not_stale; stale_iv = Intervals.empty; may_iv = Intervals.empty }

let state t v =
  match Hashtbl.find_opt t.states v with
  | Some s -> s
  | None ->
      let gpu = fresh_dev () in
      let gpus =
        Array.init t.ndevices (fun d -> if d = 0 then gpu else fresh_dev ())
      in
      let s = { cpu = fresh_dev (); gpu; gpus; len = max_int / 2 } in
      Hashtbl.add t.states v s;
      s

(** Record the element count of [v] (fine mode ranges whole-array events). *)
let register_len t v len = (state t v).len <- max 1 len

let dev_state t v dev =
  let s = state t v in
  match dev with Cpu -> s.cpu | Gpu -> s.gpu

(* Per-device copies we still consider part of the set: alive members, or
   every member once all are lost (the degenerate host-mode case). *)
let live_gpu_ids t =
  let ids = ref [] in
  for d = t.ndevices - 1 downto 0 do
    if t.alive_gpus.(d) then ids := d :: !ids
  done;
  if !ids = [] then List.init t.ndevices (fun d -> d) else !ids

let severity = function Not_stale -> 0 | May_stale -> 1 | Stale -> 2

let of_severity = function 0 -> Not_stale | 1 -> May_stale | _ -> Stale

(** Status of one member device's copy of [v]. *)
let gpu_status t v d = (state t v).gpus.(d).status

(* The set-wide GPU status is the pessimistic join over live copies: a read
   executed by every member is missing data if any member's copy is stale.
   With one device this is exactly the member's own status. *)
let join_gpu t v =
  List.fold_left
    (fun acc d -> max acc (severity (gpu_status t v d)))
    0 (live_gpu_ids t)
  |> of_severity

(* Best live copy: the one a download would be served from. *)
let best_gpu t v =
  List.fold_left
    (fun acc d -> min acc (severity (gpu_status t v d)))
    2 (live_gpu_ids t)
  |> of_severity

let get t v dev =
  match dev with Cpu -> (state t v).cpu.status | Gpu -> join_gpu t v

let audit_dev = function Cpu -> Obs.Audit.Cpu | Gpu -> Obs.Audit.Gpu

let audit_status = function
  | Not_stale -> Obs.Audit.Notstale
  | May_stale -> Obs.Audit.Maystale
  | Stale -> Obs.Audit.Stale

(* Every observable status transition flows through here, so the audit log
   captures all of them with the op/point context set by the entry point.
   The audit records the primary (device 0) lattice; secondary members of a
   device set transition silently. *)
let set_state t v dev ~audited ds st =
  if ds.status <> st then begin
    (match t.audit with
    | Some a when audited ->
        Obs.Audit.record a ~time:(t.now ()) ~var:v ~dev:(audit_dev dev)
          ~from_:(audit_status ds.status) ~to_:(audit_status st)
          ~op:t.cur_op ~point:t.cur_point ~loops:(List.rev t.loop_stack)
    | Some _ | None -> ());
    ds.status <- st
  end

(* A [Gpu] update addresses the whole device set: every live member's copy
   moves together (the single-device lattice is the one-member case). *)
let set t v dev st =
  match dev with
  | Cpu -> set_state t v Cpu ~audited:true (dev_state t v Cpu) st
  | Gpu ->
      let s = state t v in
      List.iter
        (fun d -> set_state t v Gpu ~audited:(d = 0) s.gpus.(d) st)
        (live_gpu_ids t)

(** Move one member device's copy of [v] (multi-device refinement). *)
let set_gpu t v d st =
  set_state t v Gpu ~audited:(d = 0) (state t v).gpus.(d) st

let set_ctx t op point =
  t.cur_op <- op;
  t.cur_point <- point

(* The program point of a check, formatted only for an attached audit. *)
let point_of_sid t = function
  | Some s when Option.is_some t.audit -> Fmt.str "stmt%d" s
  | Some _ | None -> ""

let other = function Cpu -> Gpu | Gpu -> Cpu

(* ---- fine-grained helpers ---- *)

let the_range t v = function
  | Some (lo, len) -> (lo, lo + len)
  | None -> (0, (state t v).len)

let touch t ds =
  t.interval_ops <-
    t.interval_ops + 1 + Intervals.pieces ds.stale_iv
    + Intervals.pieces ds.may_iv

(* Fine-mode status of a device copy over a range. *)
let range_status t v dev ~lo ~hi =
  let ds = dev_state t v dev in
  touch t ds;
  if Intervals.intersects ds.stale_iv ~lo ~hi then Stale
  else if Intervals.intersects ds.may_iv ~lo ~hi then May_stale
  else Not_stale

let mark_fresh t v dev ~lo ~hi =
  let ds = dev_state t v dev in
  touch t ds;
  ds.stale_iv <- Intervals.subtract ds.stale_iv ~lo ~hi;
  ds.may_iv <- Intervals.subtract ds.may_iv ~lo ~hi

let mark_stale t v dev ~lo ~hi =
  let ds = dev_state t v dev in
  touch t ds;
  ds.stale_iv <- Intervals.add ds.stale_iv ~lo ~hi;
  ds.may_iv <- Intervals.subtract ds.may_iv ~lo ~hi

let report t kind ?site ?(sid = -1) ?dev var desc =
  t.reports <-
    { r_kind = kind; r_var = var; r_site = site; r_sid = sid; r_dev = dev;
      r_desc = desc; r_loops = List.rev t.loop_stack }
    :: t.reports

(* --- loop context, for messages like Listing 4's "enclosing loop index" --- *)

let enter_loop t label = t.loop_stack <- (label, 0) :: t.loop_stack

let next_iteration t =
  match t.loop_stack with
  | (label, i) :: rest -> t.loop_stack <- (label, i + 1) :: rest
  | [] -> ()

let exit_loop t =
  match t.loop_stack with
  | _ :: rest -> t.loop_stack <- rest
  | [] -> ()

(* --- runtime calls --- *)

let check_read ?sid ?range t v dev =
  set_ctx t "check-read" (point_of_sid t sid);
  t.checks_executed <- t.checks_executed + 1;
  match t.granularity with
  | Coarse ->
      (match get t v dev with
      | Stale ->
          report t Missing v ?sid ~dev
            (Fmt.str "reading %s on %s requires a transfer from %s first" v
               (device_name dev)
               (device_name (other dev)))
      | May_stale ->
          report t May_missing v ?sid ~dev
            (Fmt.str "%s copy of %s may be stale at this read"
               (device_name dev) v)
      | Not_stale -> ());
      (* Avoid cascading duplicates once reported. *)
      set t v dev Not_stale
  | Fine ->
      let lo, hi = the_range t v range in
      (match range_status t v dev ~lo ~hi with
      | Stale ->
          report t Missing v ?sid ~dev
            (Fmt.str
               "reading %s%s on %s requires a transfer from %s first" v
               (Intervals.to_string (Intervals.of_range lo hi))
               (device_name dev)
               (device_name (other dev)))
      | May_stale ->
          report t May_missing v ?sid ~dev
            (Fmt.str "%s copy of %s may be stale at this read"
               (device_name dev) v)
      | Not_stale -> ());
      mark_fresh t v dev ~lo ~hi

let check_write ?sid ?range t v dev =
  set_ctx t "check-write" (point_of_sid t sid);
  t.checks_executed <- t.checks_executed + 1;
  match t.granularity with
  | Coarse ->
      (match get t v dev with
      | Stale | May_stale ->
          report t May_missing v ?sid ~dev
            (Fmt.str
               "%s writes %s whose local copy is stale; a transfer is \
                missing unless the write fully overwrites the data"
               (device_name dev) v)
      | Not_stale -> ());
      set t v dev Not_stale;
      set t v (other dev) Stale
  | Fine ->
      let lo, hi = the_range t v range in
      (match range_status t v dev ~lo ~hi with
      | Stale | May_stale ->
          report t May_missing v ?sid ~dev
            (Fmt.str
               "%s writes %s whose local copy is stale; a transfer is \
                missing unless the write fully overwrites the data"
               (device_name dev) v)
      | Not_stale -> ());
      mark_fresh t v dev ~lo ~hi;
      mark_stale t v (other dev) ~lo ~hi

let reset_status t v dev st =
  set_ctx t "reset" "";
  t.checks_executed <- t.checks_executed + 1;
  (match t.granularity with
  | Coarse -> ()
  | Fine ->
      let lo, hi = the_range t v None in
      let ds = dev_state t v dev in
      touch t ds;
      (match st with
      | Not_stale ->
          ds.stale_iv <- Intervals.empty;
          ds.may_iv <- Intervals.empty
      | May_stale ->
          ds.stale_iv <- Intervals.empty;
          ds.may_iv <- Intervals.of_range lo hi
      | Stale -> ds.stale_iv <- Intervals.of_range lo hi));
  set t v dev st

(* A transfer is about to move [v] along [dir]; [site] identifies the call
   site for the report; [range] restricts to a subarray. *)
let on_transfer ?range t v dir ~site =
  set_ctx t
    (match dir with H2D -> "transfer-h2d" | D2H -> "transfer-d2h")
    site.site_label;
  let src, tgt = match dir with H2D -> (Cpu, Gpu) | D2H -> (Gpu, Cpu) in
  let dir_desc =
    match dir with
    | H2D -> "from host to device"
    | D2H -> "from device to host"
  in
  match t.granularity with
  | Coarse ->
      (* The source of a download is the best live copy (that is the one the
         runtime serves it from); with one device this is its own status. *)
      let src_status =
        match src with Cpu -> get t v Cpu | Gpu -> best_gpu t v
      in
      (match src_status with
      | Stale ->
          (* An outdated source makes the transfer incorrect; a simultaneous
             redundancy verdict would be contradictory, so it is
             suppressed. *)
          report t Incorrect v ~site ~sid:site.site_sid
            (Fmt.str "copying %s %s in %s transfers an outdated value" v
               dir_desc site.site_label)
      | May_stale | Not_stale -> (
          (* An upload broadcasts to every live member of the device set;
             when their statuses diverge, redundancy is judged per member
             (cross-device redundant transfers).  A uniform set — always
             the case with one device — keeps the single-device verdicts. *)
          let per_device =
            match tgt with
            | Cpu -> None
            | Gpu -> (
                match live_gpu_ids t with
                | [] | [ _ ] -> None
                | ids ->
                    let sts = List.map (fun d -> (d, gpu_status t v d)) ids in
                    if List.for_all (fun (_, s) -> s = snd (List.hd sts)) sts
                    then None
                    else Some sts)
          in
          match per_device with
          | Some sts ->
              List.iter
                (fun (d, st) ->
                  if st = Not_stale then
                    report t Redundant v ~site ~sid:site.site_sid
                      (Fmt.str
                         "copying %s %s in %s is redundant on device %d \
                          (its copy is already current)"
                         v dir_desc site.site_label d))
                sts
          | None -> (
              match get t v tgt with
              | Not_stale ->
                  report t Redundant v ~site ~sid:site.site_sid
                    (Fmt.str "copying %s %s in %s is redundant" v dir_desc
                       site.site_label)
              | May_stale ->
                  report t May_redundant v ~site ~sid:site.site_sid
                    (Fmt.str
                       "copying %s %s in %s may be redundant (target value \
                        appears dead)"
                       v dir_desc site.site_label)
              | Stale -> ())));
      (* Whole-array granularity: even a partial copy marks the target
         fresh — the imprecision the Fine mode removes. *)
      set t v tgt Not_stale
  | Fine ->
      let lo, hi = the_range t v range in
      (match range_status t v src ~lo ~hi with
      | Stale ->
          report t Incorrect v ~site ~sid:site.site_sid
            (Fmt.str "copying %s %s in %s transfers an outdated value" v
               dir_desc site.site_label)
      | May_stale | Not_stale -> (
          match range_status t v tgt ~lo ~hi with
          | Not_stale ->
              report t Redundant v ~site ~sid:site.site_sid
                (Fmt.str "copying %s %s in %s is redundant" v dir_desc
                   site.site_label)
          | May_stale ->
              report t May_redundant v ~site ~sid:site.site_sid
                (Fmt.str
                   "copying %s %s in %s may be redundant (target value \
                    appears dead)"
                   v dir_desc site.site_label)
          | Stale -> ()));
      mark_fresh t v tgt ~lo ~hi

let on_free t v =
  set_ctx t "free" "";
  (match t.granularity with
  | Coarse -> ()
  | Fine ->
      let lo, hi = the_range t v None in
      mark_stale t v Gpu ~lo ~hi);
  set t v Gpu Stale

(* ---------------- multi-device refinement (coarse statuses) ------------- *)

(* The entry points below are driven by the device-set runtime, which knows
   which members actually executed a kernel or received a peer sync.  They
   refine the per-member coarse statuses; fine-mode interval tracking stays
   set-wide. *)

(** A kernel committed [v] on exactly [devs]: their copies are fresh, every
    other live member's copy is stale.  A one-member lattice is the
    paper's automaton, which moves its device copy only through the
    inserted checks and transfers, so there is nothing to refine. *)
let note_kernel_write t v ~devs =
  if t.ndevices > 1 then begin
    set_ctx t "kernel-commit" "";
    List.iter
      (fun d ->
        set_gpu t v d (if List.mem d devs then Not_stale else Stale))
      (live_gpu_ids t)
  end

(** A peer/broadcast sync refreshed [v] on [devs] (no report: the runtime
    initiated it, the program did not ask for a transfer). *)
let note_gpu_fresh t v ~devs =
  set_ctx t "peer-sync" "";
  List.iter (fun d -> if t.alive_gpus.(d) then set_gpu t v d Not_stale) devs

(** Device [d] dropped off the bus: its resident copies are gone. *)
let on_device_lost t d =
  set_ctx t "device-lost" "";
  if d >= 0 && d < t.ndevices then begin
    Hashtbl.iter (fun v _ -> set_gpu t v d Stale) t.states;
    t.alive_gpus.(d) <- false
  end

let reports t = List.rev t.reports

(** Group a run's reports per (site/statement, kind, variable) with
    execution counts and the iteration ranges they occurred in — the
    digest the CLI prints instead of one line per dynamic occurrence. *)
let summarize (rs : report list) =
  let tbl : (string * kind * string, int * report) Hashtbl.t =
    Hashtbl.create 16
  in
  let order = ref [] in
  List.iter
    (fun r ->
      let where =
        match r.r_site with
        | Some s -> s.site_label
        | None -> Fmt.str "stmt%d" r.r_sid
      in
      let key = (where, r.r_kind, r.r_var) in
      match Hashtbl.find_opt tbl key with
      | Some (n, first) -> Hashtbl.replace tbl key (n + 1, first)
      | None ->
          Hashtbl.add tbl key (1, r);
          order := key :: !order)
    rs;
  List.rev_map
    (fun key ->
      let n, first = Hashtbl.find tbl key in
      let _, kind, _ = key in
      let suffix =
        if n = 1 then ""
        else
          match first.r_loops with
          | [] -> Fmt.str " (x%d)" n
          | (label, i) :: _ ->
              Fmt.str " (x%d, from %s iteration %d on)" n label i
      in
      Fmt.str "[%s] %s%s" (kind_name kind) first.r_desc suffix)
    !order
