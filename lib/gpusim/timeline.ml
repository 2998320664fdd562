(** Execution timeline: a record of every device-visible event with its
    simulated start time and duration.

    This is the traceability artifact the paper's Table I contrasts with
    low-level profilers: because events carry the *source-level* label of
    the operation that caused them (the transfer site, the kernel name),
    a user can attribute simulated time back to input directives.
    [Obs.Chrome] exports timelines as Chrome traces. *)

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
   observer; a disabled timeline records nothing, formats no label and
   returns [None]. *)
let record t ?stream ~kind ~label ~start ~duration () =
  if t.enabled then begin
    let e =
      { ev_kind = kind; ev_label = label (); ev_start = start;
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
