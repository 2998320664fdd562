(** Execution timeline: a record of every device-visible event with its
    simulated start time and duration.

    This is the traceability artifact the paper's Table I contrasts with
    low-level profilers: because events carry the *source-level* label of
    the operation that caused them (the transfer site, the kernel name),
    a user can attribute simulated time back to input directives.  The
    timeline exports Chrome-trace JSON (load in chrome://tracing or
    https://ui.perfetto.dev). *)

type kind =
  | Ev_transfer of { var : string; h2d : bool; bytes : int }
  | Ev_kernel of { name : string; iterations : int }
  | Ev_alloc of string
  | Ev_free of string
  | Ev_wait
  | Ev_check
  | Ev_fault of string  (** injected device fault (fault-kind name) *)

type event = {
  ev_kind : kind;
  ev_label : string;  (** source-level attribution *)
  ev_start : float;  (** simulated seconds *)
  ev_duration : float;
  ev_stream : int option;  (** async queue, if any *)
}

type t = {
  mutable events : event list (* reversed *);
  mutable enabled : bool;
}

let create ?(enabled = true) () = { events = []; enabled }

(* The recorded event is returned so the device can report it to its
   observer; a disabled timeline records nothing and returns [None]. *)
let record t ?stream ~kind ~label ~start ~duration () =
  if t.enabled then begin
    let e =
      { ev_kind = kind; ev_label = label; ev_start = start;
        ev_duration = duration; ev_stream = stream }
    in
    t.events <- e :: t.events;
    Some e
  end
  else None

let events t = List.rev t.events

let count t = List.length t.events

let kind_name = function
  | Ev_transfer { h2d = true; _ } -> "transfer-h2d"
  | Ev_transfer { h2d = false; _ } -> "transfer-d2h"
  | Ev_kernel _ -> "kernel"
  | Ev_alloc _ -> "alloc"
  | Ev_free _ -> "free"
  | Ev_wait -> "wait"
  | Ev_check -> "check"
  | Ev_fault k -> "fault-" ^ k

(** Total simulated time per event kind. *)
let summary t =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun e ->
      let k = kind_name e.ev_kind in
      Hashtbl.replace tbl k
        (e.ev_duration +. Option.value ~default:0.0 (Hashtbl.find_opt tbl k)))
    (events t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

(* JSON string escaping for labels. *)
let escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(** Chrome-trace event objects, one string per event. Track 0 is the host
    thread; async streams get their own tracks ([tid = stream + 1]). *)
let chrome_events ?(pid = 1) t =
  List.map
    (fun e ->
      let tid = match e.ev_stream with None -> 0 | Some q -> q + 1 in
      Fmt.str
        "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": %.3f, \
         \"dur\": %.3f, \"pid\": %d, \"tid\": %d}"
        (escape e.ev_label)
        (kind_name e.ev_kind)
        (e.ev_start *. 1e6) (e.ev_duration *. 1e6) pid tid)
    (events t)

(** One Chrome lane per device-set member: every event of [t] rendered
    onto the single track [tid] (stream substructure collapses into the
    member's lane).  Zero-duration fault events — device loss, injected
    faults — render as thread-scoped instant ("i") marks so they stay
    visible at any zoom. *)
let chrome_device_events ?(pid = 1) ~tid t =
  List.map
    (fun e ->
      match e.ev_kind with
      | Ev_fault _ when e.ev_duration = 0.0 ->
          Fmt.str
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"i\", \"ts\": \
             %.3f, \"s\": \"t\", \"pid\": %d, \"tid\": %d}"
            (escape e.ev_label)
            (kind_name e.ev_kind)
            (e.ev_start *. 1e6) pid tid
      | _ ->
          Fmt.str
            "{\"name\": \"%s\", \"cat\": \"%s\", \"ph\": \"X\", \"ts\": \
             %.3f, \"dur\": %.3f, \"pid\": %d, \"tid\": %d}"
            (escape e.ev_label)
            (kind_name e.ev_kind)
            (e.ev_start *. 1e6) (e.ev_duration *. 1e6) pid tid)
    (events t)

(** Chrome metadata event naming process [pid] (used when merging the
    timelines of several runs into one trace). *)
let chrome_process_name ~pid name =
  Fmt.str
    "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": %d, \"args\": \
     {\"name\": \"%s\"}}"
    pid (escape name)

(** A Chrome-trace JSON document: the event objects as one array, one
    per line. *)
let chrome_document lines =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[\n";
  List.iteri
    (fun i line ->
      if i > 0 then Buffer.add_string buf ",\n";
      Buffer.add_string buf "  ";
      Buffer.add_string buf line)
    lines;
  Buffer.add_string buf "\n]\n";
  Buffer.contents buf

(** Chrome-trace ("trace event format") JSON. *)
let to_chrome_json t = chrome_document (chrome_events t)

(** Multi-lane Chrome-trace JSON for a device set: the pre-rendered
    [host] event objects on lane [tid 0], then member [d]'s timeline on
    lane [tid d + 1]. *)
let to_chrome_json_devices ?(host = []) timelines =
  chrome_document
    (host
    @ List.concat
        (List.mapi
           (fun d t -> chrome_device_events ~tid:(d + 1) t)
           (Array.to_list timelines)))

let pp ppf t =
  List.iter
    (fun e ->
      Fmt.pf ppf "%10.3f us %-12s %-8s %s@." (e.ev_start *. 1e6)
        (kind_name e.ev_kind)
        (match e.ev_stream with
        | None -> "sync"
        | Some q -> Fmt.str "stream%d" q)
        e.ev_label)
    (events t)
