(** Coherence audit log: every {notstale, maystale, stale} transition of
    every shared array, with the program point and the triggering runtime
    operation.

    This is the explanation layer behind the §III-B missing/redundant
    reports: a report tells the user *that* a transfer is missing at a
    point; the audit log shows *why* — the exact sequence of writes,
    transfers and frees that drove the copy into its stale state.  The log
    is replayable: folding the entries from the all-fresh initial state
    must reach exactly the final statuses the runtime reports (tested). *)

type device = Cpu | Gpu

let device_name = function Cpu -> "cpu" | Gpu -> "gpu"

type status = Notstale | Maystale | Stale

let status_name = function
  | Notstale -> "notstale"
  | Maystale -> "maystale"
  | Stale -> "stale"

type entry = {
  a_seq : int;
  a_time : float;  (** simulated seconds *)
  a_var : string;
  a_dev : device;
  a_from : status;
  a_to : status;
  a_op : string;  (** triggering runtime call, e.g. ["check-write"] *)
  a_point : string;  (** program point: transfer-site label or ["stmtN"] *)
  a_loops : (string * int) list;  (** enclosing host loops, outermost first *)
}

type t = { mutable entries_rev : entry list; mutable seq : int }

let create () = { entries_rev = []; seq = 0 }

let record t ~time ~var ~dev ~from_ ~to_ ~op ~point ~loops =
  t.entries_rev <-
    { a_seq = t.seq; a_time = time; a_var = var; a_dev = dev;
      a_from = from_; a_to = to_; a_op = op; a_point = point;
      a_loops = loops }
    :: t.entries_rev;
  t.seq <- t.seq + 1

let entries t = List.rev t.entries_rev
let length t = t.seq

(** Replay the log from the all-fresh initial state: the final status of
    every (variable, device) copy that ever transitioned, sorted. *)
let final_states t =
  let tbl : (string * device, status) Hashtbl.t = Hashtbl.create 16 in
  List.iter (fun e -> Hashtbl.replace tbl (e.a_var, e.a_dev) e.a_to)
    (entries t);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort compare

let pp_entry ppf e =
  Fmt.pf ppf "#%-4d %.6f s  %-4s copy of %-10s %s -> %s  (%s%s%s)" e.a_seq
    e.a_time (device_name e.a_dev) e.a_var (status_name e.a_from)
    (status_name e.a_to) e.a_op
    (if e.a_point = "" then "" else " at " ^ e.a_point)
    (match e.a_loops with
    | [] -> ""
    | ls ->
        Fmt.str "; %s"
          (String.concat ", "
             (List.map (fun (l, i) -> Fmt.str "%s=%d" l i) ls)))

let pp ppf t =
  List.iter (fun e -> Fmt.pf ppf "%a@." pp_entry e) (entries t)

let entry_json e =
  let str s = Pjson.Str s in
  Pjson.Obj
    [ ("type", str "audit"); ("seq", Pjson.int e.a_seq);
      ("t", Pjson.fixed 9 e.a_time); ("var", str e.a_var);
      ("dev", str (device_name e.a_dev)); ("from", str (status_name e.a_from));
      ("to", str (status_name e.a_to)); ("op", str e.a_op);
      ("point", str e.a_point);
      ( "loops",
        Pjson.Arr
          (List.map
             (fun (l, i) ->
               Pjson.Obj [ ("loop", str l); ("iter", Pjson.int i) ])
             e.a_loops) ) ]

let to_jsonl t =
  String.concat ""
    (List.map (fun e -> Pjson.to_line (entry_json e) ^ "\n") (entries t))
