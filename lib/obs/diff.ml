(** Differential profiling over {!Profile} values.  Deltas are plain
    float subtraction, so identical profiles diff to exactly zero (float
    [=]) — tolerance policy is the caller's business. *)

type verdict = Improved | Regressed | Appeared | Vanished | Unchanged

let verdict_name = function
  | Improved -> "improved"
  | Regressed -> "regressed"
  | Appeared -> "appeared"
  | Vanished -> "vanished"
  | Unchanged -> "unchanged"

type cat_delta = {
  cd_cat : string;
  cd_before : float;
  cd_after : float;
  cd_delta : float;
}

type row_delta = {
  rd_directive : string;
  rd_kind : string;
  rd_loc : string;
  rd_verdict : verdict;
  rd_before : float;
  rd_after : float;
  rd_delta : float;
  rd_cats : cat_delta list;
}

type t = {
  d_before_name : string;
  d_after_name : string;
  d_categories : string list;
  d_rows : row_delta list;
  d_totals : cat_delta list;
  d_total_before : float;
  d_total_after : float;
  d_delta : float;
  d_counters : (string * int * int) list;
}

(* Union preserving the first list's order, then the second's novelties. *)
let union_keys a b =
  a @ List.filter (fun k -> not (List.mem k a)) b

let assoc0 k l = Option.value ~default:0.0 (List.assoc_opt k l)

let cat_deltas categories before_cats after_cats =
  List.map
    (fun c ->
      let b = assoc0 c before_cats and a = assoc0 c after_cats in
      { cd_cat = c; cd_before = b; cd_after = a; cd_delta = a -. b })
    categories

let diff ?(before_name = "before") ?(after_name = "after") ~before ~after () =
  let categories =
    union_keys before.Profile.p_categories after.Profile.p_categories
  in
  let row_of p d =
    List.find_opt (fun r -> r.Profile.r_directive = d) p.Profile.p_rows
  in
  let directives =
    union_keys
      (List.map (fun r -> r.Profile.r_directive) before.Profile.p_rows)
      (List.map (fun r -> r.Profile.r_directive) after.Profile.p_rows)
  in
  let rows =
    List.map
      (fun d ->
        let rb = row_of before d and ra = row_of after d in
        let kind, loc =
          match (ra, rb) with
          | Some r, _ | None, Some r -> (r.Profile.r_kind, r.Profile.r_loc)
          | None, None -> ("host", "")
        in
        let tb =
          match rb with Some r -> r.Profile.r_total | None -> 0.0
        in
        let ta =
          match ra with Some r -> r.Profile.r_total | None -> 0.0
        in
        let verdict =
          match (rb, ra) with
          | None, _ -> Appeared
          | _, None -> Vanished
          | Some _, Some _ ->
              let dt = ta -. tb in
              if dt = 0.0 then Unchanged
              else if dt > 0.0 then Regressed
              else Improved
        in
        { rd_directive = d; rd_kind = kind; rd_loc = loc;
          rd_verdict = verdict; rd_before = tb; rd_after = ta;
          rd_delta = ta -. tb;
          rd_cats =
            cat_deltas categories
              (match rb with Some r -> r.Profile.r_cats | None -> [])
              (match ra with Some r -> r.Profile.r_cats | None -> []) })
      directives
  in
  let counters =
    let names =
      union_keys
        (List.map fst before.Profile.p_counters)
        (List.map fst after.Profile.p_counters)
    in
    List.map
      (fun n ->
        ( n,
          Option.value ~default:0
            (List.assoc_opt n before.Profile.p_counters),
          Option.value ~default:0
            (List.assoc_opt n after.Profile.p_counters) ))
      names
  in
  { d_before_name = before_name;
    d_after_name = after_name;
    d_categories = categories;
    d_rows = rows;
    d_totals =
      cat_deltas categories before.Profile.p_totals after.Profile.p_totals;
    d_total_before = before.Profile.p_total;
    d_total_after = after.Profile.p_total;
    d_delta = after.Profile.p_total -. before.Profile.p_total;
    d_counters = counters }

let is_zero d =
  d.d_delta = 0.0
  && List.for_all (fun c -> c.cd_delta = 0.0) d.d_totals
  && List.for_all
       (fun r ->
         r.rd_verdict = Unchanged
         && List.for_all (fun c -> c.cd_delta = 0.0) r.rd_cats)
       d.d_rows
  && List.for_all (fun (_, b, a) -> b = a) d.d_counters

let dominant_cat r =
  List.fold_left
    (fun acc c ->
      match acc with
      | Some best when Float.abs best.cd_delta >= Float.abs c.cd_delta -> acc
      | _ -> if c.cd_delta = 0.0 then acc else Some c)
    None r.rd_cats
  |> Option.map (fun c -> c.cd_cat)

let movers d =
  List.filter
    (fun r ->
      r.rd_delta <> 0.0
      || List.exists (fun c -> c.cd_delta <> 0.0) r.rd_cats
      || r.rd_verdict = Appeared || r.rd_verdict = Vanished)
    d.d_rows
  |> List.stable_sort
       (fun a b -> Float.compare (Float.abs b.rd_delta) (Float.abs a.rd_delta))

(* ------------------------------ text ------------------------------ *)

let pct ~base delta = 100.0 *. delta /. Float.max (Float.abs base) 1e-12

let pp ppf d =
  Fmt.pf ppf "profile diff: %s -> %s@." d.d_before_name d.d_after_name;
  Fmt.pf ppf "total: %.9f s -> %.9f s  (delta %+.9f s, %+.2f%%)@."
    d.d_total_before d.d_total_after d.d_delta
    (pct ~base:d.d_total_before d.d_delta);
  if is_zero d then Fmt.pf ppf "all-zero delta: the profiles are identical@."
  else begin
    Fmt.pf ppf "category totals:@.";
    List.iter
      (fun c ->
        if c.cd_before <> 0.0 || c.cd_after <> 0.0 then
          Fmt.pf ppf "  %-16s %12.9f -> %12.9f  %+.9f@." c.cd_cat
            c.cd_before c.cd_after c.cd_delta)
      d.d_totals;
    let ms = movers d in
    if ms <> [] then begin
      Fmt.pf ppf "directives (largest shift first):@.";
      List.iter
        (fun r ->
          Fmt.pf ppf "  [%-9s] %-34s %12.9f -> %12.9f  %+.9f%s@."
            (verdict_name r.rd_verdict)
            r.rd_directive r.rd_before r.rd_after r.rd_delta
            (match dominant_cat r with
            | Some c -> "  (" ^ c ^ ")"
            | None -> ""))
        ms
    end;
    let changed = List.filter (fun (_, b, a) -> b <> a) d.d_counters in
    if changed <> [] then begin
      Fmt.pf ppf "counters:@.";
      List.iter
        (fun (n, b, a) -> Fmt.pf ppf "  %-16s %d -> %d  (%+d)@." n b a (a - b))
        changed
    end
  end

(* ------------------------------ JSON ------------------------------ *)

let cat_json c =
  Pjson.Obj
    [ ("category", Pjson.Str c.cd_cat); ("before", Pjson.fixed 9 c.cd_before);
      ("after", Pjson.fixed 9 c.cd_after); ("delta", Pjson.fixed 9 c.cd_delta)
    ]

let row_json r =
  Pjson.Obj
    [ ("directive", Pjson.Str r.rd_directive); ("kind", Pjson.Str r.rd_kind);
      ("loc", Pjson.Str r.rd_loc);
      ("verdict", Pjson.Str (verdict_name r.rd_verdict));
      ("before", Pjson.fixed 9 r.rd_before);
      ("after", Pjson.fixed 9 r.rd_after);
      ("delta", Pjson.fixed 9 r.rd_delta);
      ("categories", Pjson.Arr (List.map cat_json r.rd_cats)) ]

let json d =
  Pjson.Obj
    [ ("schema", Pjson.Str (Trace.schema ^ ".profile-diff"));
      ("version", Pjson.int Trace.version);
      ("before", Pjson.Str d.d_before_name);
      ("after", Pjson.Str d.d_after_name);
      ("total_before", Pjson.fixed 9 d.d_total_before);
      ("total_after", Pjson.fixed 9 d.d_total_after);
      ("delta", Pjson.fixed 9 d.d_delta); ("zero", Pjson.Bool (is_zero d));
      ("totals", Pjson.Arr (List.map cat_json d.d_totals));
      ("rows", Pjson.Arr (List.map row_json d.d_rows));
      ( "counters",
        Pjson.Arr
          (List.map
             (fun (n, b, a) ->
               Pjson.Obj
                 [ ("name", Pjson.Str n); ("before", Pjson.int b);
                   ("after", Pjson.int a) ])
             d.d_counters) ) ]

let to_json d = Pjson.to_string (json d)

(* ---------------------- canonical-JSON loader ---------------------- *)

let profile_of_json s =
  try
    let v = Pjson.parse s in
    (* A read whose error names the member it failed on. *)
    let named k read x =
      try read x with Pjson.Bad m -> raise (Pjson.Bad (k ^ ": " ^ m))
    in
    let field v k read =
      match Pjson.member k v with
      | Some x -> named k read x
      | None -> raise (Pjson.Bad ("missing field " ^ k))
    in
    let members read = function
      | Pjson.Obj kvs -> List.map (fun (k, x) -> (k, named k read x)) kvs
      | _ -> raise (Pjson.Bad "expected an object")
    in
    (match field v "schema" Pjson.str_exn with
    | sc when sc = Trace.schema ^ ".profile" -> ()
    | sc -> raise (Pjson.Bad ("unexpected schema " ^ sc)));
    (match field v "version" Pjson.int_exn with
    | n when n = Trace.version -> ()
    | n -> raise (Pjson.Bad (Fmt.str "unsupported version %d" n)));
    let totals = field v "totals" (members Pjson.num_exn) in
    let rows =
      field v "rows" (fun x ->
          List.map
            (fun rv ->
              { Profile.r_directive = field rv "directive" Pjson.str_exn;
                r_kind = field rv "kind" Pjson.str_exn;
                r_loc = field rv "loc" Pjson.str_exn;
                r_cats = field rv "categories" (members Pjson.num_exn);
                r_total = field rv "total" Pjson.num_exn })
            (Pjson.arr_exn x))
    in
    Ok
      ( { Profile.p_categories = List.map fst totals;
          p_rows = rows;
          p_totals = totals;
          p_total = field v "total" Pjson.num_exn;
          (* Diffs compare host-clock attribution; a multi-device
             document's per-device tables are not re-parsed. *)
          p_devices = [];
          p_counters = field v "counters" (members Pjson.int_exn) },
        field v "name" Pjson.str_exn,
        field v "seed" Pjson.int_exn )
  with Pjson.Bad m -> Error m
