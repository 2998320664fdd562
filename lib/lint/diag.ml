(** Diagnostics engine shared by the lint analyses (see the interface for
    the code catalogue). *)

type severity = Error | Warning | Info

let severity_name = function
  | Error -> "error"
  | Warning -> "warning"
  | Info -> "info"

let rank = function Error -> 2 | Warning -> 1 | Info -> 0

let at_least threshold s = rank s >= rank threshold

type fixit =
  | Fix_add_private of { sid : int; var : string }
  | Fix_add_reduction of { sid : int; op : Minic.Ast.redop; var : string }
  | Fix_weaken_clause of { sid : int; var : string; side : [ `In | `Out ] }
  | Fix_remove_update_var of { sid : int; var : string; host : bool }
  | Fix_insert_update of { before_sid : int; var : string; host : bool }

let apply_fixit prog = function
  | Fix_add_private { sid; var } ->
      Acc.Edit.map_directive prog ~sid ~f:(fun d ->
          { d with
            clauses = Acc.Edit.add_private_var d.Minic.Ast.clauses var })
  | Fix_add_reduction { sid; op; var } ->
      Acc.Edit.map_directive prog ~sid ~f:(fun d ->
          { d with
            clauses = Acc.Edit.add_reduction_var d.Minic.Ast.clauses op var })
  | Fix_weaken_clause { sid; var; side } ->
      Openarc_core.Session.apply_action prog
        (Openarc_core.Suggest.Weaken_clause { sid; var; side })
  | Fix_remove_update_var { sid; var; host } ->
      Openarc_core.Session.apply_action prog
        (Openarc_core.Suggest.Remove_update_var { sid; var; host })
  | Fix_insert_update { before_sid; var; host } ->
      Openarc_core.Session.apply_action prog
        (Openarc_core.Suggest.Add_update { before_sid; var; host })

let fixit_text = function
  | Fix_add_private { var; _ } -> Fmt.str "add 'private(%s)' to the directive" var
  | Fix_add_reduction { op; var; _ } ->
      Fmt.str "add 'reduction(%s:%s)' to the directive"
        (Minic.Pretty.redop_str op) var
  | Fix_weaken_clause { var; side; _ } ->
      Fmt.str "weaken the data clause of '%s' (drop its %s copy)" var
        (match side with `In -> "entry" | `Out -> "exit")
  | Fix_remove_update_var { var; host; _ } ->
      Fmt.str "remove '%s' from the 'update %s' clause" var
        (if host then "host" else "device")
  | Fix_insert_update { var; host; _ } ->
      Fmt.str "insert '#pragma acc update %s(%s)' before this statement"
        (if host then "host" else "device")
        var

type t = {
  code : string;
  severity : severity;
  loc : Minic.Loc.t;
  var : string option;
  site : string option;
  message : string;
  fixit : fixit option;
}

let mk ?var ?site ?fixit ~code ~severity ~loc message =
  { code; severity; loc; var; site; message; fixit }

let sort ds =
  List.stable_sort
    (fun a b ->
      let c = compare a.loc.Minic.Loc.line b.loc.Minic.Loc.line in
      if c <> 0 then c
      else
        let c = compare a.loc.Minic.Loc.col b.loc.Minic.Loc.col in
        if c <> 0 then c
        else
          let c = compare a.code b.code in
          if c <> 0 then c
          else compare (a.var, a.site) (b.var, b.site))
    ds

let filter ~threshold ds = List.filter (fun d -> at_least threshold d.severity) ds

let worst ds =
  List.fold_left
    (fun acc d ->
      match acc with
      | Some w when rank w >= rank d.severity -> acc
      | _ -> Some d.severity)
    None ds

let pp ppf d =
  Fmt.pf ppf "%a: %s: [%s] %s" Minic.Loc.pp d.loc (severity_name d.severity)
    d.code d.message;
  match d.fixit with
  | Some f -> Fmt.pf ppf " (fix: %s)" (fixit_text f)
  | None -> ()

let to_text ds = String.concat "" (List.map (Fmt.str "%a@." pp) ds)

(* ------------------------------- JSON ------------------------------- *)

let to_json ds =
  let module P = Obs.Pjson in
  let str s = P.Str s in
  let obj d =
    P.Obj
      [ ("code", str d.code); ("severity", str (severity_name d.severity));
        ("file", str d.loc.Minic.Loc.file);
        ("line", P.int d.loc.Minic.Loc.line);
        ("col", P.int d.loc.Minic.Loc.col); ("var", P.opt str d.var);
        ("site", P.opt str d.site); ("message", str d.message);
        ("fixit", P.opt str (Option.map fixit_text d.fixit)) ]
  in
  P.to_string (P.Arr (List.map obj ds))
