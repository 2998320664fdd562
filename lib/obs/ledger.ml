(** Per-array, per-direction data-movement ledger with cause attribution,
    live allocation watermarks, and a counterfactual savings analyzer.

    The runtime records every byte that crosses the (simulated) PCIe bus —
    H2D uploads, D2H downloads, reduction re-broadcasts, peer syncs,
    recovery re-transfers — as a typed ledger entry carrying the *cause*
    of the movement, the device ordinal whose DMA engine did the work, the
    source directive (transfer-site label and location), and whether the
    destination copy was already fresh (a redundant transfer, per the
    §III-B coherence lattice).  Allocation and free events feed
    per-device watermarks (current/peak bytes) and per-array lifetime
    intervals.

    Entries that pass through a device DMA engine are *counted*: their
    per-direction byte totals equal the {!Gpusim.Metrics}
    [bytes_h2d]/[bytes_d2h] accumulators exactly (the conservation
    property the ledger tests assert with integer [=]).  Functional peer
    blits the runtime models as overlapped DMA (reduction re-broadcast,
    mirror restores) are recorded uncounted, so the ledger still explains
    them without disturbing conservation.

    [analyze] re-costs the recorded ledger under the gpusim transfer cost
    model for the saturator's candidate rewrites — hoist a data region
    out of a loop, convert copy→present, merge adjacent kernels' data
    clauses — and emits per-site [wasted_bytes]/[saved_s] counterfactuals
    with keep/apply verdicts, mirroring the {!Imbalance} analyzer shape.

    Everything here is plain data (ints, floats, strings): the module
    deliberately knows nothing about [Gpusim]; the cost-model constants
    it re-costs with are passed in. *)

type cause =
  | Copyin  (** data-clause H2D upload (broadcast members included) *)
  | Copyout  (** data-clause D2H download (single-device) *)
  | Rebroadcast  (** reduction-merge broadcast / peer input sync *)
  | Gather  (** rotating multi-device D2H result gather *)
  | Retry  (** fault-recovery re-transfer (transient retry or checksum) *)
  | Failover  (** post-fallback re-upload of host results *)
  | Demotion  (** device-fresh data restored to the host (mirror/ckpt) *)

let cause_name = function
  | Copyin -> "copyin"
  | Copyout -> "copyout"
  | Rebroadcast -> "rebroadcast"
  | Gather -> "gather"
  | Retry -> "retry"
  | Failover -> "failover"
  | Demotion -> "demotion"

type dir = H2d | D2h

let dir_name = function H2d -> "h2d" | D2h -> "d2h"

type entry = {
  e_seq : int;  (** ledger order *)
  e_array : string;
  e_dir : dir;
  e_cause : cause;
  e_bytes : int;
  e_dev : int;  (** device ordinal whose DMA engine moved the bytes *)
  e_site : string;  (** source directive label, e.g. ["copyin(a)"] *)
  e_loc : string;
  e_exec : int;  (** transfer-site execution ordinal (1-based; 0 if none) *)
  e_time : float;  (** simulated start time *)
  e_duration : float;
  e_counted : bool;  (** passed through a DMA engine (metrics bytes) *)
  e_redundant : bool;  (** destination copy was already fresh *)
  e_hoistable : bool;
      (** the transfer repeats an earlier one of the same array with no
          intervening host access that justifies it: for an upload, no
          host write since the previous upload; for a download, no host
          read since the previous download.  Hoisting the enclosing data
          region (keeping the device buffer alive) would eliminate it —
          the waste a post-free coherence lattice cannot see. *)
}

type lifetime = {
  lt_array : string;
  lt_dev : int;
  lt_bytes : int;
  lt_alloc : float;
  mutable lt_free : float option;  (** [None] while still allocated *)
}

type t = {
  devices : int;
  schedule : string;
  mutable seq : int;
  mutable entries_rev : entry list;
  current : int array;  (** live allocated bytes per device *)
  peak : int array;
  mutable samples_rev : (int * float * int) list;
      (** (dev, time, allocated-after) — one per alloc/free event *)
  mutable lifetimes_rev : lifetime list;
  open_lts : (string * int, lifetime) Hashtbl.t;
}

let create ~devices ~schedule =
  { devices; schedule; seq = 0; entries_rev = [];
    current = Array.make (max 1 devices) 0;
    peak = Array.make (max 1 devices) 0;
    samples_rev = []; lifetimes_rev = []; open_lts = Hashtbl.create 16 }

let xfer t ~array ~dir ~cause ~bytes ~dev ~site ~loc ~exec ~time ~duration
    ~counted ~redundant ~hoist =
  let e =
    { e_seq = t.seq; e_array = array; e_dir = dir; e_cause = cause;
      e_bytes = bytes; e_dev = dev; e_site = site; e_loc = loc;
      e_exec = exec; e_time = time; e_duration = duration;
      e_counted = counted; e_redundant = redundant; e_hoistable = hoist }
  in
  t.seq <- t.seq + 1;
  t.entries_rev <- e :: t.entries_rev

(* One allocation-tracking event: [bytes] is the signed delta (positive
   alloc, negative free), [allocated] the device's live total after it. *)
let mem t ~array ~dev ~bytes ~allocated ~time =
  if dev >= 0 && dev < Array.length t.current then begin
    t.current.(dev) <- allocated;
    if allocated > t.peak.(dev) then t.peak.(dev) <- allocated
  end;
  t.samples_rev <- (dev, time, allocated) :: t.samples_rev;
  if bytes > 0 then begin
    let lt =
      { lt_array = array; lt_dev = dev; lt_bytes = bytes; lt_alloc = time;
        lt_free = None }
    in
    Hashtbl.replace t.open_lts (array, dev) lt;
    t.lifetimes_rev <- lt :: t.lifetimes_rev
  end
  else
    match Hashtbl.find_opt t.open_lts (array, dev) with
    | Some lt ->
        lt.lt_free <- Some time;
        Hashtbl.remove t.open_lts (array, dev)
    | None -> ()

let entries t = List.rev t.entries_rev
let lifetimes t = List.rev t.lifetimes_rev
let samples t = List.rev t.samples_rev

(* Counted per-direction byte totals: must equal the metrics
   [bytes_h2d]/[bytes_d2h] accumulators summed over every device-set
   member (integer [=], no tolerance). *)
let totals t =
  List.fold_left
    (fun (h, d) e ->
      if not e.e_counted then (h, d)
      else
        match e.e_dir with
        | H2d -> (h + e.e_bytes, d)
        | D2h -> (h, d + e.e_bytes))
    (0, 0) t.entries_rev

(* ----------------------------- analysis ----------------------------- *)

type site_report = {
  s_site : string;  (** directive label *)
  s_loc : string;
  s_array : string;
  s_dir : dir;
  s_execs : int;  (** transfer-site executions *)
  s_transfers : int;  (** counted DMA transfers (broadcast members incl.) *)
  s_bytes : int;
  s_redundant : int;  (** transfers whose destination was already fresh *)
  s_hoistable : int;
      (** non-redundant repeats a hoisted data region would eliminate *)
  s_wasted_bytes : int;
  s_causes : (string * int) list;  (** bytes by cause, first-use order *)
  s_rewrite : string;  (** "hoist" | "present" | "merge" | "none" *)
  s_saved_s : float;  (** modeled DMA time of the dropped transfers *)
  s_verdict : string;  (** "apply" | "keep" *)
}

type analysis = {
  a_devices : int;
  a_schedule : string;
  a_h2d_bytes : int;  (** counted totals (= the metrics accumulators) *)
  a_d2h_bytes : int;
  a_uncounted_bytes : int;  (** modeled overlapped-DMA movement *)
  a_transfers : int;  (** counted DMA transfers *)
  a_transfer_s : float;  (** noise-free model cost of every counted one *)
  a_causes : (string * int) list;  (** bytes by cause, first-use order *)
  a_sites : site_report list;  (** first-execution order *)
  a_wasted_bytes : int;
  a_saved_s : float;  (** total over "apply" verdicts *)
  a_peaks : (int * int * int) list;  (** (dev, current, peak) bytes *)
  a_lifetimes : lifetime list;
}

(* A rewrite must be material: saving under half a percent of the
   program's modeled transfer time keeps the clauses as written (the
   same 0.5% work-materiality the schedule analyzer uses). *)
let materiality = 0.995

type acc = {
  mutable n : int;
  mutable bytes : int;
  mutable red_n : int;
  mutable red_bytes : int;
  mutable red_after_d2h : int;
      (* redundant H2D whose previous counted movement of the same array
         was a download: the data made a host round trip between adjacent
         kernels, so the rewrite is a clause merge, not just [present] *)
  mutable hoist_n : int;
  mutable hoist_bytes : int;
  mutable execs : int;
  mutable saved : float;
  mutable site_causes_rev : (string * int) list;
}

let bump_cause rev_list cause bytes =
  let name = cause_name cause in
  if List.mem_assoc name !rev_list then
    rev_list :=
      List.map (fun (n, v) -> if n = name then (n, v + bytes) else (n, v))
        !rev_list
  else rev_list := (name, bytes) :: !rev_list

let analyze t ~pcie_latency ~pcie_bandwidth =
  let cost bytes = pcie_latency +. (float_of_int bytes /. pcie_bandwidth) in
  let causes_rev = ref [] in
  let order_rev = ref [] in
  let groups : (string * string * string * dir, acc) Hashtbl.t =
    Hashtbl.create 16
  in
  let last_dir : (string, dir) Hashtbl.t = Hashtbl.create 8 in
  let h2d = ref 0 and d2h = ref 0 and uncounted = ref 0 in
  let transfers = ref 0 and transfer_s = ref 0.0 in
  List.iter
    (fun e ->
      bump_cause causes_rev e.e_cause e.e_bytes;
      if not e.e_counted then uncounted := !uncounted + e.e_bytes
      else begin
        (match e.e_dir with
        | H2d -> h2d := !h2d + e.e_bytes
        | D2h -> d2h := !d2h + e.e_bytes);
        incr transfers;
        transfer_s := !transfer_s +. cost e.e_bytes;
        let key = (e.e_site, e.e_loc, e.e_array, e.e_dir) in
        let a =
          match Hashtbl.find_opt groups key with
          | Some a -> a
          | None ->
              let a =
                { n = 0; bytes = 0; red_n = 0; red_bytes = 0;
                  red_after_d2h = 0; hoist_n = 0; hoist_bytes = 0;
                  execs = 0; saved = 0.0; site_causes_rev = [] }
              in
              Hashtbl.add groups key a;
              order_rev := key :: !order_rev;
              a
        in
        a.n <- a.n + 1;
        a.bytes <- a.bytes + e.e_bytes;
        a.execs <- Int.max a.execs e.e_exec;
        (let scr = ref a.site_causes_rev in
         bump_cause scr e.e_cause e.e_bytes;
         a.site_causes_rev <- !scr);
        if e.e_redundant then begin
          a.red_n <- a.red_n + 1;
          a.red_bytes <- a.red_bytes + e.e_bytes;
          a.saved <- a.saved +. cost e.e_bytes;
          if
            e.e_dir = H2d
            && Hashtbl.find_opt last_dir e.e_array = Some D2h
          then a.red_after_d2h <- a.red_after_d2h + 1
        end
        else if e.e_hoistable && a.n > 1 then begin
          (* Not redundant on the lattice (the free at region exit reset
             it) but a repeat with no intervening host access: a hoisted
             data region keeps the buffer alive and drops it.  [a.n > 1]
             anchors the site's first transfer as the one that stays. *)
          a.hoist_n <- a.hoist_n + 1;
          a.hoist_bytes <- a.hoist_bytes + e.e_bytes;
          a.saved <- a.saved +. cost e.e_bytes
        end;
        Hashtbl.replace last_dir e.e_array e.e_dir
      end)
    (entries t);
  let threshold = (1.0 -. materiality) *. !transfer_s in
  let sites =
    List.rev_map
      (fun ((site, loc, array, dir) as key) ->
        let a = Hashtbl.find groups key in
        let rewrite =
          if a.red_n = a.n && a.n > 0 then
            match dir with
            | H2d -> if a.red_after_d2h > 0 then "merge" else "present"
            | D2h -> "present"
          else if a.hoist_n > 0 then "hoist"
          else if a.red_n > 0 then
            if a.execs > 1 then "hoist" else "present"
          else "none"
        in
        let apply = rewrite <> "none" && a.saved > threshold in
        { s_site = site; s_loc = loc; s_array = array; s_dir = dir;
          s_execs = a.execs; s_transfers = a.n; s_bytes = a.bytes;
          s_redundant = a.red_n; s_hoistable = a.hoist_n;
          s_wasted_bytes = a.red_bytes + a.hoist_bytes;
          s_causes = List.rev a.site_causes_rev;
          s_rewrite = rewrite; s_saved_s = a.saved;
          s_verdict = (if apply then "apply" else "keep") })
      !order_rev
  in
  let wasted =
    List.fold_left (fun acc s -> acc + s.s_wasted_bytes) 0 sites
  in
  let saved =
    List.fold_left
      (fun acc s -> if s.s_verdict = "apply" then acc +. s.s_saved_s else acc)
      0.0 sites
  in
  { a_devices = t.devices;
    a_schedule = t.schedule;
    a_h2d_bytes = !h2d;
    a_d2h_bytes = !d2h;
    a_uncounted_bytes = !uncounted;
    a_transfers = !transfers;
    a_transfer_s = !transfer_s;
    a_causes = List.rev !causes_rev;
    a_sites = sites;
    a_wasted_bytes = wasted;
    a_saved_s = saved;
    a_peaks =
      List.init (Array.length t.current) (fun d ->
          (d, t.current.(d), t.peak.(d)));
    a_lifetimes = lifetimes t }

(* ------------------------------- export ----------------------------- *)

let schema = Trace.schema ^ ".memtrace"
let version = 1

(* JSON has no NaN. *)
let num x = if Float.is_nan x then Pjson.Num "0.0" else Pjson.fixed 9 x

let causes_json causes =
  Pjson.Obj (List.map (fun (c, b) -> (c, Pjson.int b)) causes)

let site_json s =
  Pjson.Obj
    [ ("site", Pjson.Str s.s_site); ("loc", Pjson.Str s.s_loc);
      ("array", Pjson.Str s.s_array); ("dir", Pjson.Str (dir_name s.s_dir));
      ("execs", Pjson.int s.s_execs); ("transfers", Pjson.int s.s_transfers);
      ("bytes", Pjson.int s.s_bytes); ("redundant", Pjson.int s.s_redundant);
      ("hoistable", Pjson.int s.s_hoistable);
      ("wasted_bytes", Pjson.int s.s_wasted_bytes);
      ("causes", causes_json s.s_causes); ("rewrite", Pjson.Str s.s_rewrite);
      ("saved_s", num s.s_saved_s); ("verdict", Pjson.Str s.s_verdict) ]

let lifetime_json lt =
  Pjson.Obj
    [ ("array", Pjson.Str lt.lt_array); ("dev", Pjson.int lt.lt_dev);
      ("bytes", Pjson.int lt.lt_bytes); ("alloc_s", num lt.lt_alloc);
      ("free_s", Pjson.opt num lt.lt_free) ]

let json ~name ~seed a =
  Pjson.Obj
    [ ("schema", Pjson.Str schema); ("version", Pjson.int version);
      ("name", Pjson.Str name); ("seed", Pjson.int seed);
      ("devices", Pjson.int a.a_devices);
      ("schedule", Pjson.Str a.a_schedule);
      ("bytes_h2d", Pjson.int a.a_h2d_bytes);
      ("bytes_d2h", Pjson.int a.a_d2h_bytes);
      ("bytes_uncounted", Pjson.int a.a_uncounted_bytes);
      ("transfers", Pjson.int a.a_transfers);
      ("transfer_s", num a.a_transfer_s); ("causes", causes_json a.a_causes);
      ("sites", Pjson.Arr (List.map site_json a.a_sites));
      ( "watermarks",
        Pjson.Arr
          (List.map
             (fun (dev, current, peak) ->
               Pjson.Obj
                 [ ("dev", Pjson.int dev);
                   ("current_bytes", Pjson.int current);
                   ("peak_bytes", Pjson.int peak) ])
             a.a_peaks) );
      ("lifetimes", Pjson.Arr (List.map lifetime_json a.a_lifetimes));
      ("wasted_bytes", Pjson.int a.a_wasted_bytes);
      ("saved_s", num a.a_saved_s) ]

let to_json ~name ~seed a = Pjson.to_string (json ~name ~seed a)

let peak_bytes a =
  List.fold_left (fun acc (_, _, p) -> Int.max acc p) 0 a.a_peaks

let pp ppf a =
  Fmt.pf ppf
    "data-movement ledger (%d device(s), schedule %s)@.@.  %-20s %-10s \
     %-4s %6s %9s %12s %12s %8s %11s  %s@."
    a.a_devices a.a_schedule "site" "array" "dir" "execs" "transfers"
    "bytes" "wasted" "rewrite" "saved-s" "verdict";
  List.iter
    (fun s ->
      Fmt.pf ppf "  %-20s %-10s %-4s %6d %9d %12d %12d %8s %11.9f  %s@."
        s.s_site s.s_array (dir_name s.s_dir) s.s_execs s.s_transfers
        s.s_bytes s.s_wasted_bytes s.s_rewrite s.s_saved_s s.s_verdict)
    a.a_sites;
  Fmt.pf ppf "@.  bytes: h2d %d, d2h %d, uncounted %d; causes:" a.a_h2d_bytes
    a.a_d2h_bytes a.a_uncounted_bytes;
  List.iter (fun (c, b) -> Fmt.pf ppf " %s %d" c b) a.a_causes;
  Fmt.pf ppf "@.  watermarks:";
  List.iter
    (fun (d, cur, peak) -> Fmt.pf ppf " dev%d %d/%d" d cur peak)
    a.a_peaks;
  Fmt.pf ppf
    "@.  counterfactual: %d wasted byte(s), %.9f s saved under the \
     applied rewrites@."
    a.a_wasted_bytes a.a_saved_s
