(** Hierarchical execution spans with source-level attribution.

    A trace is the observability spine of a run: a tree of *spans*
    (session → compile phases → region/kernel/transfer → recovery) plus a
    chronological stream of *charge events* — every simulated-time charge
    the cost accounting makes, tagged with the innermost open span and the
    nearest enclosing directive.  Because charges are replayed in the exact
    order the {!Gpusim.Metrics} accumulator saw them, per-category totals
    recomputed from a trace are bit-identical to the metrics totals (the
    conservation property the profiler asserts).

    The trace exports a stable, versioned JSONL event stream
    ([schema "openarc.obs", version 1]): one [meta] header line, then
    [span_begin] / [span_end] / [charge] lines in event order, then final
    [counter] lines. *)

let schema = "openarc.obs"
let version = 1

type kind =
  | Session  (** one CLI invocation / one profiled run *)
  | Phase  (** compiler pipeline stage, or the runtime "run" phase *)
  | Region  (** a source data/compute region *)
  | Kernel  (** one kernel launch (retries included) *)
  | Transfer  (** one transfer-site execution *)
  | Alloc
  | Free
  | Wait
  | Check  (** coherence runtime check *)
  | Recovery  (** one resilience action (retry, re-transfer, fallback, ...) *)
  | Device  (** device-visible leaf imported from the {!Gpusim.Timeline} *)
  | Merge  (** one per-member reduction-merge step of a sharded kernel *)

let kind_name = function
  | Session -> "session"
  | Phase -> "phase"
  | Region -> "region"
  | Kernel -> "kernel"
  | Transfer -> "transfer"
  | Alloc -> "alloc"
  | Free -> "free"
  | Wait -> "wait"
  | Check -> "check"
  | Recovery -> "recovery"
  | Device -> "device"
  | Merge -> "merge"

type span = {
  sp_id : int;
  sp_parent : int option;
  sp_kind : kind;
  sp_name : string;
  sp_loc : string option;  (** source location, ["file:line:col"] *)
  sp_directive : string option;
      (** source-level directive attribution (kernel name, transfer-site
          label); charges made under this span roll up to it *)
  sp_dev : int option;
      (** device-set member ordinal this span executed on; [None] for
          host-side spans and every single-device run *)
  mutable sp_attrs : (string * string) list;
  sp_start : float;  (** simulated seconds *)
  mutable sp_end : float option;
}

(** The directive charges fall to when no enclosing span carries one. *)
let host_directive = "(host)"

type charge = {
  c_span : int;  (** innermost open span, [-1] outside any span *)
  c_directive : string;
  c_category : string;  (** {!Gpusim.Metrics} category name *)
  c_dev : int option;
      (** device-set member ordinal whose accumulator took the charge;
          [None] on single-device runs (the primary is the host clock) *)
  c_dt : float;
}

type event =
  | E_begin of span
  | E_end of span * float
  | E_charge of charge

type t = {
  mutable clock : unit -> float;
  mutable next_id : int;
  mutable stack : span list;  (** open spans, innermost first *)
  mutable events_rev : event list;
  mutable spans_rev : span list;
  counter_tbl : (string, int) Hashtbl.t;
  mutable counter_order_rev : string list;  (** first-use order, reversed *)
}

let create ?(clock = fun () -> 0.0) () =
  { clock; next_id = 0; stack = []; events_rev = []; spans_rev = [];
    counter_tbl = Hashtbl.create 8; counter_order_rev = [] }

let set_clock t clock = t.clock <- clock

let push_event t e = t.events_rev <- e :: t.events_rev

let fresh_span t kind name ?loc ?directive ?dev ?(attrs = []) ~start ~finish
    () =
  let sp =
    { sp_id = t.next_id;
      sp_parent =
        (match t.stack with [] -> None | s :: _ -> Some s.sp_id);
      sp_kind = kind; sp_name = name; sp_loc = loc;
      sp_directive = directive; sp_dev = dev; sp_attrs = attrs;
      sp_start = start; sp_end = finish }
  in
  t.next_id <- t.next_id + 1;
  t.spans_rev <- sp :: t.spans_rev;
  sp

let start_span t kind name ?loc ?directive ?dev ?attrs () =
  let sp =
    fresh_span t kind name ?loc ?directive ?dev ?attrs ~start:(t.clock ())
      ~finish:None ()
  in
  t.stack <- sp :: t.stack;
  push_event t (E_begin sp);
  sp

let end_span t sp =
  let now = t.clock () in
  sp.sp_end <- Some now;
  (* Pop up to and including [sp]; unknown spans leave the stack alone. *)
  let rec pop = function
    | [] -> t.stack
    | s :: rest -> if s.sp_id = sp.sp_id then rest else pop rest
  in
  t.stack <- pop t.stack;
  push_event t (E_end (sp, now))

let with_span t kind name ?loc ?directive ?dev ?attrs f =
  let sp = start_span t kind name ?loc ?directive ?dev ?attrs () in
  Fun.protect ~finally:(fun () -> end_span t sp) f

let leaf t kind name ?loc ?directive ?dev ?attrs ~start ~duration () =
  let sp =
    fresh_span t kind name ?loc ?directive ?dev ?attrs ~start
      ~finish:(Some (start +. duration)) ()
  in
  push_event t (E_begin sp);
  push_event t (E_end (sp, start +. duration))

let current_directive t =
  let rec find = function
    | [] -> host_directive
    | s :: rest -> (
        match s.sp_directive with Some d -> d | None -> find rest)
  in
  find t.stack

let charge t ?dev ~category dt =
  let span = match t.stack with [] -> -1 | s :: _ -> s.sp_id in
  push_event t
    (E_charge
       { c_span = span; c_directive = current_directive t;
         c_category = category; c_dev = dev; c_dt = dt })

let count t name n =
  (match Hashtbl.find_opt t.counter_tbl name with
  | Some v -> Hashtbl.replace t.counter_tbl name (v + n)
  | None ->
      Hashtbl.add t.counter_tbl name n;
      t.counter_order_rev <- name :: t.counter_order_rev)

let incr t name = count t name 1

let spans t = List.rev t.spans_rev
let events t = List.rev t.events_rev
let open_spans t = List.length t.stack

let counters t =
  List.rev_map (fun n -> (n, Hashtbl.find t.counter_tbl n))
    t.counter_order_rev

(* ------------------------------ JSONL ------------------------------ *)

let str s = Pjson.Str s

(* A member present only when the field is set. *)
let some k f = function Some v -> [ (k, f v) ] | None -> []

let record = function
  | E_begin sp ->
      Pjson.Obj
        ([ ("type", str "span_begin"); ("id", Pjson.int sp.sp_id);
           ("parent", Pjson.opt Pjson.int sp.sp_parent);
           ("kind", str (kind_name sp.sp_kind)); ("name", str sp.sp_name) ]
        @ some "loc" str sp.sp_loc
        @ some "directive" str sp.sp_directive
        @ some "dev" Pjson.int sp.sp_dev
        @ [ ("t", Pjson.fixed 9 sp.sp_start) ])
  | E_end (sp, at) ->
      Pjson.Obj
        ([ ("type", str "span_end"); ("id", Pjson.int sp.sp_id);
           ("t", Pjson.fixed 9 at) ]
        @
        match sp.sp_attrs with
        | [] -> []
        | attrs ->
            [ ("attrs", Pjson.Obj (List.map (fun (k, v) -> (k, str v)) attrs))
            ])
  | E_charge c ->
      Pjson.Obj
        ([ ("type", str "charge"); ("span", Pjson.int c.c_span);
           ("directive", str c.c_directive); ("category", str c.c_category) ]
        @ some "dev" Pjson.int c.c_dev
        @ [ ("dt", Pjson.exp 12 c.c_dt) ])

let to_jsonl t =
  let meta =
    Pjson.Obj
      [ ("type", str "meta"); ("schema", str schema);
        ("version", Pjson.int version) ]
  in
  let counter (name, v) =
    Pjson.Obj
      [ ("type", str "counter"); ("name", str name); ("value", Pjson.int v) ]
  in
  String.concat ""
    (List.map
       (fun r -> Pjson.to_line r ^ "\n")
       ((meta :: List.map record (events t)) @ List.map counter (counters t)))

let pp ppf t =
  let depth = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      let d =
        match sp.sp_parent with
        | None -> 0
        | Some p -> 1 + Option.value ~default:0 (Hashtbl.find_opt depth p)
      in
      Hashtbl.replace depth sp.sp_id d;
      Fmt.pf ppf "%s%-10s %s [%.6f s .. %s]@."
        (String.make (2 * d) ' ')
        (kind_name sp.sp_kind) sp.sp_name sp.sp_start
        (match sp.sp_end with
        | None -> "open"
        | Some e -> Fmt.str "%.6f s" e))
    (spans t)
