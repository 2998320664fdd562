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

(** What raised a report: the facts its sentence is rendered from. *)
type event =
  | Read of { dev : device; range : (int * int) option }
      (** a checked read of [dev]'s copy; fine mode records the element
          range [\[lo, hi)] read *)
  | Write of { dev : device }  (** a checked write of [dev]'s copy *)
  | Copy of { site : site; dir : xdir; member : int option }
      (** a transfer at [site]; [member] is the device-set member a
          per-member redundancy verdict names *)

type report = {
  r_kind : kind;
  r_var : string;
  r_event : event;
  r_sid : int;  (** source statement the event traces back to (-1 unknown) *)
  r_loops : (string * int) list;  (** enclosing host loops, outermost first *)
}

let other = function Cpu -> Gpu | Gpu -> Cpu

let dir_desc = function
  | H2D -> "from host to device"
  | D2H -> "from device to host"

(* The sentence a report shows the programmer, rendered only when read. *)
let describe r =
  let v = r.r_var in
  match (r.r_event, r.r_kind) with
  | Read { dev; range }, Missing ->
      Printf.sprintf "reading %s%s on %s requires a transfer from %s first" v
        (match range with
        | None -> ""
        | Some (lo, hi) -> Intervals.to_string (Intervals.of_range lo hi))
        (device_name dev)
        (device_name (other dev))
  | Read { dev; _ }, (May_missing | Incorrect | Redundant | May_redundant) ->
      Printf.sprintf "%s copy of %s may be stale at this read"
        (device_name dev) v
  | Write { dev }, _ ->
      Printf.sprintf
        "%s writes %s whose local copy is stale; a transfer is missing \
         unless the write fully overwrites the data"
        (device_name dev) v
  | Copy { site; dir; member }, kind -> (
      let copying =
        Printf.sprintf "copying %s %s in %s" v (dir_desc dir) site.site_label
      in
      match (kind, member) with
      | Incorrect, _ -> copying ^ " transfers an outdated value"
      | Redundant, Some d ->
          Printf.sprintf
            "%s is redundant on device %d (its copy is already current)"
            copying d
      | Redundant, None -> copying ^ " is redundant"
      | (Missing | May_missing | May_redundant), _ ->
          copying ^ " may be redundant (target value appears dead)")

let pp_report ppf r =
  let loops ppf = function
    | [] -> ()
    | ls ->
        Fmt.pf ppf " (%a)"
          (Fmt.list ~sep:(Fmt.any ", ")
             (fun ppf (v, i) -> Fmt.pf ppf "enclosing loop %s index = %d" v i))
          ls
  in
  Fmt.pf ppf "[%s] %s%a" (kind_name r.r_kind) (describe r) loops r.r_loops

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
  mutable live_gpus : int list;
      (** members whose copies we still consider part of the set *)
  states : (string, var_state) Hashtbl.t;
  mutable reports : report list;  (** reversed *)
  mutable loop_stack : (string * int) list;  (** innermost first *)
  mutable interval_ops : int;
      (** fine-mode tracking work: interval pieces touched (the cost the
          paper's granularity discussion worries about) *)
  audit : Obs.Audit.t option;  (** records every status transition *)
  now : unit -> float;  (** simulated clock for audit timestamps *)
  mutable cur_op : string;  (** runtime call currently driving transitions *)
  mutable cur_point : string;  (** program point of that call *)
}

(* Per-device copies we still consider part of the set: alive members, or
   every member once all are lost (the degenerate host-mode case). *)
let live_ids alive =
  let n = Array.length alive in
  let ids = ref [] in
  for d = n - 1 downto 0 do
    if alive.(d) then ids := d :: !ids
  done;
  if !ids = [] then List.init n Fun.id else !ids

let create ?(granularity = Coarse) ?audit ?(now = fun () -> 0.0)
    ?(devices = 1) () =
  let devices = max 1 devices in
  let alive_gpus = Array.make devices true in
  { granularity; ndevices = devices; alive_gpus;
    live_gpus = live_ids alive_gpus; states = Hashtbl.create 32;
    reports = []; loop_stack = []; interval_ops = 0; audit; now;
    cur_op = ""; cur_point = "" }

let fresh_dev () =
  { status = Not_stale; stale_iv = Intervals.empty; may_iv = Intervals.empty }

(* The one table lookup of an entry point: every helper below takes the
   state it returns. *)
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

let dev_state s = function Cpu -> s.cpu | Gpu -> s.gpu

let severity = function Not_stale -> 0 | May_stale -> 1 | Stale -> 2

let of_severity = function 0 -> Not_stale | 1 -> May_stale | _ -> Stale

(** Status of one member device's copy of [v]. *)
let gpu_status t v d = (state t v).gpus.(d).status

(* The set-wide GPU status is the pessimistic join over live copies: a read
   executed by every member is missing data if any member's copy is stale.
   With one device this is exactly the member's own status. *)
let join_gpu t s =
  List.fold_left
    (fun acc d -> max acc (severity s.gpus.(d).status))
    0 t.live_gpus
  |> of_severity

(* Best live copy: the one a download would be served from. *)
let best_gpu t s =
  List.fold_left
    (fun acc d -> min acc (severity s.gpus.(d).status))
    2 t.live_gpus
  |> of_severity

let status_in t s = function Cpu -> s.cpu.status | Gpu -> join_gpu t s

let get t v dev = status_in t (state t v) dev

(* Every observable status transition flows through here, so the audit log
   captures all of them with the op/point context set by the entry point.
   The audit records the primary (device 0) lattice; secondary members of a
   device set transition silently. *)
let set_state t v dev ~audited ds st =
  if ds.status <> st then begin
    (match t.audit with
    | Some a when audited ->
        Obs.Audit.record a ~time:(t.now ()) ~var:v ~dev ~from_:ds.status
          ~to_:st ~op:t.cur_op ~point:t.cur_point
          ~loops:(List.rev t.loop_stack)
    | Some _ | None -> ());
    ds.status <- st
  end

let set_member t v s d st = set_state t v Gpu ~audited:(d = 0) s.gpus.(d) st

(* A [Gpu] update addresses the whole device set: every live member's copy
   moves together (the single-device lattice is the one-member case). *)
let set_in t v s dev st =
  match dev with
  | Cpu -> set_state t v Cpu ~audited:true s.cpu st
  | Gpu -> List.iter (fun d -> set_member t v s d st) t.live_gpus

let set t v dev st = set_in t v (state t v) dev st

(** Move one member device's copy of [v] (multi-device refinement). *)
let set_gpu t v d st = set_member t v (state t v) d st

let set_ctx t op point =
  t.cur_op <- op;
  t.cur_point <- point

(* The program point of a check, formatted only for an attached audit. *)
let point_of_sid t = function
  | Some s when Option.is_some t.audit -> Printf.sprintf "stmt%d" s
  | Some _ | None -> ""

(* ---- fine-grained helpers ---- *)

let the_range s = function
  | Some (lo, len) -> (lo, lo + len)
  | None -> (0, s.len)

let touch t ds =
  t.interval_ops <-
    t.interval_ops + 1 + Intervals.pieces ds.stale_iv
    + Intervals.pieces ds.may_iv

(* Fine-mode status of a device copy over a range. *)
let range_status t s dev ~lo ~hi =
  let ds = dev_state s dev in
  touch t ds;
  if Intervals.intersects ds.stale_iv ~lo ~hi then Stale
  else if Intervals.intersects ds.may_iv ~lo ~hi then May_stale
  else Not_stale

let mark_fresh t s dev ~lo ~hi =
  let ds = dev_state s dev in
  touch t ds;
  ds.stale_iv <- Intervals.subtract ds.stale_iv ~lo ~hi;
  ds.may_iv <- Intervals.subtract ds.may_iv ~lo ~hi

let mark_stale t s dev ~lo ~hi =
  let ds = dev_state s dev in
  touch t ds;
  ds.stale_iv <- Intervals.add ds.stale_iv ~lo ~hi;
  ds.may_iv <- Intervals.subtract ds.may_iv ~lo ~hi

let report t kind ?(sid = -1) var event =
  t.reports <-
    { r_kind = kind; r_var = var; r_event = event; r_sid = sid;
      r_loops = List.rev t.loop_stack }
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
  let s = state t v in
  match t.granularity with
  | Coarse ->
      (match status_in t s dev with
      | Stale -> report t Missing v ?sid (Read { dev; range = None })
      | May_stale -> report t May_missing v ?sid (Read { dev; range = None })
      | Not_stale -> ());
      (* Avoid cascading duplicates once reported. *)
      set_in t v s dev Not_stale
  | Fine ->
      let lo, hi = the_range s range in
      (match range_status t s dev ~lo ~hi with
      | Stale -> report t Missing v ?sid (Read { dev; range = Some (lo, hi) })
      | May_stale ->
          report t May_missing v ?sid (Read { dev; range = Some (lo, hi) })
      | Not_stale -> ());
      mark_fresh t s dev ~lo ~hi

let check_write ?sid ?range t v dev =
  set_ctx t "check-write" (point_of_sid t sid);
  let s = state t v in
  match t.granularity with
  | Coarse ->
      (match status_in t s dev with
      | Stale | May_stale -> report t May_missing v ?sid (Write { dev })
      | Not_stale -> ());
      set_in t v s dev Not_stale;
      set_in t v s (other dev) Stale
  | Fine ->
      let lo, hi = the_range s range in
      (match range_status t s dev ~lo ~hi with
      | Stale | May_stale -> report t May_missing v ?sid (Write { dev })
      | Not_stale -> ());
      mark_fresh t s dev ~lo ~hi;
      mark_stale t s (other dev) ~lo ~hi

let reset_status t v dev st =
  set_ctx t "reset" "";
  let s = state t v in
  (match t.granularity with
  | Coarse -> ()
  | Fine ->
      let lo, hi = the_range s None in
      let ds = dev_state s dev in
      touch t ds;
      (match st with
      | Not_stale ->
          ds.stale_iv <- Intervals.empty;
          ds.may_iv <- Intervals.empty
      | May_stale ->
          ds.stale_iv <- Intervals.empty;
          ds.may_iv <- Intervals.of_range lo hi
      | Stale -> ds.stale_iv <- Intervals.of_range lo hi));
  set_in t v s dev st

(* A transfer is about to move [v] along [dir]; [site] identifies the call
   site for the report; [range] restricts to a subarray. *)
let on_transfer ?range t v dir ~site =
  set_ctx t
    (match dir with H2D -> "transfer-h2d" | D2H -> "transfer-d2h")
    site.site_label;
  let s = state t v in
  let src, tgt = match dir with H2D -> (Cpu, Gpu) | D2H -> (Gpu, Cpu) in
  let copy ?member kind =
    report t kind v ~sid:site.site_sid (Copy { site; dir; member })
  in
  match t.granularity with
  | Coarse ->
      (* The source of a download is the best live copy (that is the one the
         runtime serves it from); with one device this is its own status. *)
      let src_status =
        match src with Cpu -> s.cpu.status | Gpu -> best_gpu t s
      in
      (match src_status with
      | Stale ->
          (* An outdated source makes the transfer incorrect; a simultaneous
             redundancy verdict would be contradictory, so it is
             suppressed. *)
          copy Incorrect
      | May_stale | Not_stale -> (
          (* An upload broadcasts to every live member of the device set;
             when their statuses diverge, redundancy is judged per member
             (cross-device redundant transfers).  A uniform set — always
             the case with one device — keeps the single-device verdicts. *)
          let per_device =
            match tgt with
            | Cpu -> None
            | Gpu -> (
                match t.live_gpus with
                | [] | [ _ ] -> None
                | ids ->
                    let sts = List.map (fun d -> (d, s.gpus.(d).status)) ids in
                    if List.for_all (fun (_, st) -> st = snd (List.hd sts)) sts
                    then None
                    else Some sts)
          in
          match per_device with
          | Some sts ->
              List.iter
                (fun (d, st) -> if st = Not_stale then copy ~member:d Redundant)
                sts
          | None -> (
              match status_in t s tgt with
              | Not_stale -> copy Redundant
              | May_stale -> copy May_redundant
              | Stale -> ())));
      (* Whole-array granularity: even a partial copy marks the target
         fresh — the imprecision the Fine mode removes. *)
      set_in t v s tgt Not_stale
  | Fine ->
      let lo, hi = the_range s range in
      (match range_status t s src ~lo ~hi with
      | Stale -> copy Incorrect
      | May_stale | Not_stale -> (
          match range_status t s tgt ~lo ~hi with
          | Not_stale -> copy Redundant
          | May_stale -> copy May_redundant
          | Stale -> ()));
      mark_fresh t s tgt ~lo ~hi

let on_free t v =
  set_ctx t "free" "";
  let s = state t v in
  (match t.granularity with
  | Coarse -> ()
  | Fine ->
      let lo, hi = the_range s None in
      mark_stale t s Gpu ~lo ~hi);
  set_in t v s Gpu Stale

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
    let s = state t v in
    List.iter
      (fun d ->
        set_member t v s d (if List.mem d devs then Not_stale else Stale))
      t.live_gpus
  end

(** A peer/broadcast sync refreshed [v] on [devs] (no report: the runtime
    initiated it, the program did not ask for a transfer). *)
let note_gpu_fresh t v ~devs =
  set_ctx t "peer-sync" "";
  if List.exists (fun d -> t.alive_gpus.(d)) devs then begin
    let s = state t v in
    List.iter
      (fun d -> if t.alive_gpus.(d) then set_member t v s d Not_stale)
      devs
  end

(** Device [d] dropped off the bus: its resident copies are gone. *)
let on_device_lost t d =
  set_ctx t "device-lost" "";
  if d >= 0 && d < t.ndevices then begin
    Hashtbl.iter (fun v s -> set_member t v s d Stale) t.states;
    t.alive_gpus.(d) <- false;
    t.live_gpus <- live_ids t.alive_gpus
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
        match r.r_event with
        | Copy { site; _ } -> site.site_label
        | Read _ | Write _ -> Printf.sprintf "stmt%d" r.r_sid
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
          | [] -> Printf.sprintf " (x%d)" n
          | (label, i) :: _ ->
              Printf.sprintf " (x%d, from %s iteration %d on)" n label i
      in
      Printf.sprintf "[%s] %s%s" (kind_name kind) (describe first) suffix)
    !order
