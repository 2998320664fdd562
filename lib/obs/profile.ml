(** Per-directive cost attribution (the paper's Figure 3/4 stacked
    breakdown, one bar per directive/region).

    The report is computed by replaying a trace's charge events in
    chronological order — the same order the {!Gpusim.Metrics} accumulator
    applied them — so every per-category total is the *identical* sequence
    of float additions the runtime performed.  The conservation check
    ([conserves]) therefore holds with bit-exact float equality, not an
    epsilon. *)

type row = {
  r_directive : string;
  r_kind : string;  (** span kind of the attributed span, or ["host"] *)
  r_loc : string;  (** source location, or [""] *)
  r_cats : (string * float) list;  (** per-category seconds, canonical order *)
  r_total : float;
}

type t = {
  p_categories : string list;  (** canonical category order *)
  p_rows : row list;  (** first-charge order *)
  p_totals : (string * float) list;  (** per-category grand totals *)
  p_total : float;  (** folds [p_totals] in canonical order *)
  p_devices : (int * row list) list;
      (** per-device-ordinal tables from device-tagged charges, ordinal
          ascending; empty on single-device runs *)
  p_counters : (string * int) list;
}

let of_trace ~categories tr =
  let ncat = List.length categories in
  let cat_idx = Hashtbl.create 16 in
  List.iteri (fun i c -> Hashtbl.add cat_idx c i) categories;
  (* Grand totals replay the accumulator's exact addition sequence. *)
  let totals = Array.make ncat 0.0 in
  (* Per-directive rows, in first-charge order. *)
  let rows : (string, float array) Hashtbl.t = Hashtbl.create 16 in
  let order_rev = ref [] in
  let row_for d =
    match Hashtbl.find_opt rows d with
    | Some a -> a
    | None ->
        let a = Array.make ncat 0.0 in
        Hashtbl.add rows d a;
        order_rev := d :: !order_rev;
        a
  in
  (* Per-device tables, from device-tagged charges.  Device 0 is the
     primary: its charges advance the host clock, so they land in both
     the host totals (conservation) and its own device table. *)
  let dev_rows : (int * string, float array) Hashtbl.t = Hashtbl.create 16 in
  let dev_order_rev = ref [] in
  let dev_row_for d dir =
    match Hashtbl.find_opt dev_rows (d, dir) with
    | Some a -> a
    | None ->
        let a = Array.make ncat 0.0 in
        Hashtbl.add dev_rows (d, dir) a;
        dev_order_rev := (d, dir) :: !dev_order_rev;
        a
  in
  List.iter
    (fun ev ->
      match ev with
      | Trace.E_charge c -> (
          match Hashtbl.find_opt cat_idx c.c_category with
          | None -> ()
          | Some i ->
              (* The host clock is the primary's accumulator: untagged
                 charges and the primary's own (dev 0) replay into the
                 conserved totals; secondary members only feed their
                 device tables. *)
              (match c.c_dev with
              | None | Some 0 ->
                  totals.(i) <- totals.(i) +. c.c_dt;
                  let a = row_for c.c_directive in
                  a.(i) <- a.(i) +. c.c_dt
              | Some _ -> ());
              (match c.c_dev with
              | None -> ()
              | Some d ->
                  let a = dev_row_for d c.c_directive in
                  a.(i) <- a.(i) +. c.c_dt))
      | Trace.E_begin _ | Trace.E_end _ -> ())
    (Trace.events tr);
  (* Attribute kind/loc from the first span carrying each directive. *)
  let span_info = Hashtbl.create 16 in
  List.iter
    (fun sp ->
      match sp.Trace.sp_directive with
      | Some d when not (Hashtbl.mem span_info d) ->
          Hashtbl.add span_info d
            ( Trace.kind_name sp.Trace.sp_kind,
              Option.value ~default:"" sp.Trace.sp_loc )
      | _ -> ())
    (Trace.spans tr);
  let info_for d =
    match Hashtbl.find_opt span_info d with
    | Some info -> info
    | None -> ("host", "")
  in
  let row_of dir a =
    let kind, loc = info_for dir in
    { r_directive = dir; r_kind = kind; r_loc = loc;
      r_cats = List.mapi (fun i c -> (c, a.(i))) categories;
      r_total = Array.fold_left ( +. ) 0.0 a }
  in
  let mk_row d = row_of d (Hashtbl.find rows d) in
  (* Device tables: ordinal ascending, rows in first-charge order. *)
  let dev_order = List.rev !dev_order_rev in
  let ordinals =
    List.sort_uniq compare (List.map fst dev_order)
  in
  let devices =
    List.map
      (fun d ->
        ( d,
          List.filter_map
            (fun (d', dir) ->
              if d' = d then
                Some (row_of dir (Hashtbl.find dev_rows (d, dir)))
              else None)
            dev_order ))
      ordinals
  in
  { p_categories = categories;
    p_rows = List.rev_map mk_row !order_rev;
    p_totals = List.mapi (fun i c -> (c, totals.(i))) categories;
    p_total = Array.fold_left ( +. ) 0.0 totals;
    p_devices = devices;
    p_counters = Trace.counters tr }

(** Bit-exact: both sides fold the same additions in the same order. *)
let conserves p ~total = p.p_total = total

(* ------------------------------ text ------------------------------ *)

let pp ppf p =
  (* Only show categories that received any charge, to keep the table
     readable; the JSON export keeps all of them. *)
  let live =
    List.filter (fun c -> List.assoc c p.p_totals <> 0.0) p.p_categories
  in
  let dir_w =
    List.fold_left
      (fun w r -> max w (String.length r.r_directive))
      (String.length "directive") p.p_rows
  in
  Fmt.pf ppf "%-*s  %10s" dir_w "directive" "total(s)";
  List.iter (fun c -> Fmt.pf ppf "  %14s" c) live;
  Fmt.pf ppf "@.";
  List.iter
    (fun r ->
      Fmt.pf ppf "%-*s  %10.6f" dir_w r.r_directive r.r_total;
      List.iter (fun c -> Fmt.pf ppf "  %14.6f" (List.assoc c r.r_cats)) live;
      Fmt.pf ppf "@.")
    p.p_rows;
  Fmt.pf ppf "%-*s  %10.6f" dir_w "TOTAL" p.p_total;
  List.iter (fun c -> Fmt.pf ppf "  %14.6f" (List.assoc c p.p_totals)) live;
  Fmt.pf ppf "@.";
  (* Per-device breakdown (multi-device runs only). *)
  List.iter
    (fun (d, rows) ->
      Fmt.pf ppf "@.device %d:@." d;
      List.iter
        (fun r ->
          Fmt.pf ppf "  %-*s  %10.6f" dir_w r.r_directive r.r_total;
          List.iter
            (fun c -> Fmt.pf ppf "  %14.6f" (List.assoc c r.r_cats))
            live;
          Fmt.pf ppf "@.")
        rows)
    p.p_devices

(* ------------------------------ JSON ------------------------------ *)

let json_cats cats =
  Pjson.Obj (List.map (fun (c, v) -> (c, Pjson.fixed 9 v)) cats)

let row_json r =
  Pjson.Obj
    [ ("directive", Pjson.Str r.r_directive); ("kind", Pjson.Str r.r_kind);
      ("loc", Pjson.Str r.r_loc); ("total", Pjson.fixed 9 r.r_total);
      ("categories", json_cats r.r_cats) ]

let json ~name ~seed p =
  Pjson.Obj
    ([ ("schema", Pjson.Str (Trace.schema ^ ".profile"));
       ("version", Pjson.int Trace.version); ("name", Pjson.Str name);
       ("seed", Pjson.int seed); ("total", Pjson.fixed 9 p.p_total);
       ("totals", json_cats p.p_totals);
       ("rows", Pjson.Arr (List.map row_json p.p_rows)) ]
    (* The devices section appears only on multi-device runs. *)
    @ (if p.p_devices = [] then []
       else
         [ ( "devices",
             Pjson.Arr
               (List.map
                  (fun (d, rows) ->
                    Pjson.Obj
                      [ ("dev", Pjson.int d);
                        ("rows", Pjson.Arr (List.map row_json rows)) ])
                  p.p_devices) ) ])
    @ [ ( "counters",
          Pjson.Obj
            (List.map (fun (n, v) -> (n, Pjson.int v)) p.p_counters) ) ])

let to_json ~name ~seed p = Pjson.to_string (json ~name ~seed p)

(* --------------------------- flamegraph --------------------------- *)

(** Folded-stack export (Brendan Gregg's flamegraph.pl format): one
    [name;name;...;category count] line per charged stack, values in
    integer nanoseconds, lines sorted for determinism. *)
let folded tr =
  let by_id = Hashtbl.create 64 in
  List.iter
    (fun sp -> Hashtbl.add by_id sp.Trace.sp_id sp)
    (Trace.spans tr);
  let rec path id acc =
    match Hashtbl.find_opt by_id id with
    | None -> acc
    | Some sp ->
        let acc = sp.Trace.sp_name :: acc in
        (match sp.Trace.sp_parent with None -> acc | Some p -> path p acc)
  in
  let stacks : (string, float) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun ev ->
      match ev with
      | Trace.E_charge c ->
          let names =
            if c.c_span < 0 then [ Trace.host_directive ]
            else path c.c_span []
          in
          let key = String.concat ";" (names @ [ c.c_category ]) in
          let prev = Option.value ~default:0.0 (Hashtbl.find_opt stacks key) in
          Hashtbl.replace stacks key (prev +. c.c_dt)
      | Trace.E_begin _ | Trace.E_end _ -> ())
    (Trace.events tr);
  Hashtbl.fold
    (fun k v acc ->
      let ns = int_of_float ((v *. 1e9) +. 0.5) in
      if ns > 0 then Fmt.str "%s %d" k ns :: acc else acc)
    stacks []
  |> List.sort compare
  |> fun lines -> String.concat "\n" lines ^ if lines = [] then "" else "\n"
