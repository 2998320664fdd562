(** Suggestion engine: turn the runtime coherence reports of one profiled
    execution into the actionable suggestions the paper's tool offers its
    user (§III-B, §IV-C):

    (i) information on redundant memory transfers, (ii) error messages on
    missing/incorrect transfers, and (iii) warnings about
    may-redundant/may-missed transfers that the programmer must verify. *)

open Minic.Ast
open Codegen.Tprog

(* A clause edit addresses [var], the name the clause gives (the array
   root or a pointer to it); the suggestion's text and [s_var] name the
   root. *)
type action =
  | Remove_update_var of { sid : int; var : string; host : bool }
      (** delete [var] from the [update] directive at [sid] *)
  | Defer_update of { sid : int; var : string; root : string; host : bool }
      (** delete [var] from the [update] directive at [sid] and update
          [root] after (host) or before (device) its enclosing loop *)
  | Weaken_clause of { sid : int; var : string; side : [ `In | `Out ] }
      (** drop the redundant [side] of [var]'s data clause on the directive
          at [sid] (e.g. a redundant entry copy turns [copy] into [copyout]
          and [copyin] into [create]) *)
  | Add_data_region of { vars : (string * data_kind * bool) list }
      (** wrap the computation in a [data] region with these clauses; the
          boolean marks clauses backed by certain (not may-dead) evidence *)
  | Add_update of { before_sid : int; var : string; host : bool }
      (** insert an [update] before the statement at [before_sid] *)
  | Report_incorrect of { site : site; var : string }
      (** an executed transfer shipped outdated data — no automatic edit *)

type suggestion = {
  s_action : action;
  s_var : string;
  s_certain : bool;  (** false: based on may-dead facts, user must verify *)
  s_text : string;
}

let pp ppf s =
  Fmt.pf ppf "%s%s" s.s_text
    (if s.s_certain then "" else " [verify: based on may-dead analysis]")

(* Per-site aggregation of one run's reports. *)
type site_stats = {
  st_site : site;
  st_var : string;
  st_dir : [ `In | `Out ];
  st_execs : int;
  mutable st_redundant : int;
  mutable st_may_redundant : int;
  mutable st_incorrect : int;
  mutable st_first_iter_flagged : bool;
}

let site_kind label =
  if String.length label >= 6 && String.sub label 0 6 = "update" then `Update
  else if String.length label >= 4 && String.sub label 0 4 = "data" then `Data
  else if String.length label >= 6 && String.sub label 0 6 = "region" then
    `Region
  else if String.length label >= 7 && String.sub label 0 7 = "declare" then
    `Data
  else `Implicit

(** Derive suggestions from a finished instrumented run. *)
let analyze (o : Accrt.Interp.outcome) =
  let reports = Accrt.Interp.reports o in
  let stats : (int, site_stats) Hashtbl.t = Hashtbl.create 32 in
  (* One record per executed transfer site, with its direction, so that
     sites with no reports still contribute their execution counts. *)
  Hashtbl.iter
    (fun id ((site : site), var, dir) ->
      Hashtbl.add stats id
        { st_site = site; st_var = var;
          st_dir = (match dir with H2D -> `In | D2H -> `Out);
          st_execs =
            Option.value ~default:0
              (Hashtbl.find_opt o.Accrt.Interp.site_execs id);
          st_redundant = 0; st_may_redundant = 0; st_incorrect = 0;
          st_first_iter_flagged = false })
    o.Accrt.Interp.sites;
  let missing = ref [] in
  List.iter
    (fun (r : Accrt.Coherence.report) ->
      match (r.r_kind, r.r_site) with
      | (Accrt.Coherence.Redundant | Accrt.Coherence.May_redundant
        | Accrt.Coherence.Incorrect), Some site ->
          (* A report names a site only from the transfer it executed. *)
          let st = Hashtbl.find stats site.site_id in
          let first_iter =
            List.for_all (fun (_, i) -> i <= 1) r.r_loops
          in
          (match r.r_kind with
          | Accrt.Coherence.Redundant ->
              st.st_redundant <- st.st_redundant + 1;
              if first_iter then st.st_first_iter_flagged <- true
          | Accrt.Coherence.May_redundant ->
              st.st_may_redundant <- st.st_may_redundant + 1;
              if first_iter then st.st_first_iter_flagged <- true
          | _ -> st.st_incorrect <- st.st_incorrect + 1)
      | (Accrt.Coherence.Missing | Accrt.Coherence.May_missing), _ ->
          missing := r :: !missing
      | _ -> ())
    reports;

  let suggestions = ref [] in
  let push s = suggestions := s :: !suggestions in

  (* Implicit (default-scheme) sites are aggregated per variable into a
     data-region plan. *)
  let implicit : (string, int * int * int * int * bool) Hashtbl.t =
    Hashtbl.create 8
  in
  (* var -> (in_execs, in_flagged, out_execs, out_flagged, certain) *)
  Hashtbl.iter
    (fun _ st ->
      let flagged = st.st_redundant + st.st_may_redundant in
      match site_kind st.st_site.site_label with
      | `Implicit ->
          let ie, if_, oe, of_, certain =
            Option.value ~default:(0, 0, 0, 0, true)
              (Hashtbl.find_opt implicit st.st_var)
          in
          let certain = certain && st.st_may_redundant = 0 in
          let v =
            match st.st_dir with
            | `In -> (ie + st.st_execs, if_ + flagged, oe, of_, certain)
            | `Out -> (ie, if_, oe + st.st_execs, of_ + flagged, certain)
          in
          Hashtbl.replace implicit st.st_var v
      | `Update when flagged > 0 ->
          let host = st.st_dir = `Out in
          if flagged >= st.st_execs then
            push
              { s_action =
                  Remove_update_var
                    { sid = st.st_site.site_sid; var = st.st_site.site_var;
                      host };
                s_var = st.st_var;
                s_certain = st.st_may_redundant = 0;
                s_text =
                  Fmt.str
                    "all %d executions of %s are redundant: remove %s from \
                     the update directive"
                    st.st_execs st.st_site.site_label st.st_var }
          else if
            st.st_execs - flagged = 1 && not st.st_first_iter_flagged
            && st.st_dir = `In
          then
            (* Only the first upload mattered: hoist out of the loop. *)
            push
              { s_action =
                  Defer_update
                    { sid = st.st_site.site_sid; var = st.st_site.site_var;
                      root = st.st_var; host };
                s_var = st.st_var;
                s_certain = st.st_may_redundant = 0;
                s_text =
                  Fmt.str
                    "%s of %s is redundant after the first iteration: move \
                     it out of the enclosing loop"
                    st.st_site.site_label st.st_var }
          else if st.st_execs - flagged = 1 && st.st_dir = `Out then
            (* All but the last download redundant: defer past the loop. *)
            push
              { s_action =
                  Defer_update
                    { sid = st.st_site.site_sid; var = st.st_site.site_var;
                      root = st.st_var; host };
                s_var = st.st_var;
                s_certain = st.st_may_redundant = 0;
                s_text =
                  Fmt.str
                    "%s of %s is redundant in all but one iteration: defer \
                     it until after the enclosing loop"
                    st.st_site.site_label st.st_var }
      | (`Data | `Region) when flagged >= st.st_execs && st.st_execs > 0 ->
          (* Redundant region-entry/exit copy: weaken the data clause. *)
          push
            { s_action =
                Weaken_clause
                  { sid = st.st_site.site_sid; var = st.st_site.site_var;
                    side = st.st_dir };
              s_var = st.st_var;
              s_certain = st.st_may_redundant = 0;
              s_text =
                Fmt.str
                  "the %s copy of %s at region boundary is redundant: weaken \
                   its data clause"
                  (match st.st_dir with `In -> "entry" | `Out -> "exit")
                  st.st_var }
      | `Update | `Data | `Region -> ();
      if st.st_incorrect > 0 then
        push
          { s_action = Report_incorrect { site = st.st_site; var = st.st_var };
            s_var = st.st_var;
            s_certain = true;
            s_text =
              Fmt.str "%s copies an outdated value of %s — an earlier \
                       transfer is missing or was wrongly removed"
                st.st_site.site_label st.st_var })
    stats;

  (* Data-region plan from the implicit per-kernel copies. *)
  let plan =
    Hashtbl.fold
      (fun var (ie, if_, oe, of_, certain) acc ->
        if if_ = 0 && of_ = 0 then acc
        else
          let kind =
            match (if_ >= ie, of_ >= oe) with
            | true, true -> Dk_create
            | false, true -> Dk_copyin
            | true, false -> Dk_copyout
            | false, false -> Dk_copy
          in
          ((var, kind), certain) :: acc)
      implicit []
  in
  if plan <> [] then begin
    let vars = List.map (fun ((v, k), certain) -> (v, k, certain)) plan in
    let certain = List.for_all (fun (_, _, c) -> c) vars in
    push
      { s_action = Add_data_region { vars };
        s_var = String.concat "," (List.map (fun (v, _, _) -> v) vars);
        s_certain = certain;
        s_text =
          Fmt.str
            "the default per-kernel copies of {%s} are largely redundant: \
             manage them with an enclosing data region (%s)"
            (String.concat ", " (List.map (fun (v, _, _) -> v) vars))
            (String.concat ", "
               (List.map
                  (fun (v, k, c) ->
                    Fmt.str "%s(%s)%s" (Minic.Pretty.data_kind_str k) v
                      (if c then "" else "?"))
                  vars)) }
  end;

  (* Missing transfers: one Add_update per (statement, var, direction). *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (r : Accrt.Coherence.report) ->
      match r.Accrt.Coherence.r_dev with
      | Some dev ->
          let host = dev = Cpu in
          let key = (r.Accrt.Coherence.r_sid, r.Accrt.Coherence.r_var, host) in
          if not (Hashtbl.mem seen key) then begin
            Hashtbl.add seen key ();
            push
              { s_action =
                  Add_update
                    { before_sid = r.Accrt.Coherence.r_sid;
                      var = r.Accrt.Coherence.r_var; host };
                s_var = r.Accrt.Coherence.r_var;
                s_certain = r.Accrt.Coherence.r_kind = Accrt.Coherence.Missing;
                s_text =
                  Fmt.str
                    "%s copy of %s is %s before this access: insert 'update \
                     %s(%s)'"
                    (device_name dev) r.Accrt.Coherence.r_var
                    (if r.Accrt.Coherence.r_kind = Accrt.Coherence.Missing
                     then "stale" else "possibly stale")
                    (if host then "host" else "device")
                    r.Accrt.Coherence.r_var }
          end
      | None -> ())
    !missing;

  List.rev !suggestions

(** Suggestions that translate into edits (errors-only reports excluded). *)
let actionable suggestions =
  List.filter
    (fun s -> match s.s_action with Report_incorrect _ -> false | _ -> true)
    suggestions
