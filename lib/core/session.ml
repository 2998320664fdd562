(** The interactive memory-transfer optimization loop of Figure 2.

    A *scripted programmer* stands in for the human user: at each iteration
    the program is compiled with coherence instrumentation, profiled, the
    tool's suggestions are applied as directive edits, and the loop repeats
    until a profiled run is clean.  As in the paper (§IV-C), suggestions
    based on may-dead facts can be wrong when the compiler could not resolve
    pointer aliasing; the next iteration's verification detects the damage
    (missing/incorrect-transfer errors, or an output mismatch against the
    sequential reference), the edit is reverted and that site is left alone —
    an "incorrect iteration" in Table III's terms. *)

open Minic.Ast

type policy =
  | Follow_all  (** apply certain and may-based suggestions (paper's user) *)
  | Conservative  (** apply only certain suggestions *)

(** Structured telemetry of one loop iteration: the profiled run's
    per-directive cost snapshot, the coherence findings it produced, the
    suggestions the scripted programmer applied, the dynamic transfer
    stats, and the verification outcome.  The bare log lines of earlier
    versions survive as [it_events]. *)
type iteration = {
  it_index : int;  (** 1-based *)
  it_profile : Obs.Profile.t option;
      (** per-directive snapshot of the instrumented run; [None] when the
          run raised before completing *)
  it_report_counts : (string * int) list;
      (** coherence report kind -> occurrence count, fixed kind order *)
  it_suggestions : (string * bool) list;
      (** suggestions applied this iteration (rendered text, certain?) *)
  it_transfers : int;  (** transfers executed by the profiled run *)
  it_bytes : int;  (** bytes moved by the profiled run *)
  it_bytes_by_cause : (string * int) list;
      (** data-movement ledger: bytes by cause, first-use order *)
  it_wasted_bytes : int;
      (** bytes the ledger's counterfactual analyzer marks redundant or
          hoistable this iteration *)
  it_peak_bytes : int;  (** largest per-device allocation watermark *)
  it_outputs_ok : bool;  (** outputs matched the sequential reference *)
  it_wrong_restored : string list;
      (** variables whose earlier transfer removal this iteration exposed
          as a wrong suggestion (and restored) *)
  it_reverted : bool;  (** this iteration reverted the previous edits *)
  it_note : string;  (** "converged", "reverted", "failed: ...", or "" *)
  it_events : string list;  (** human-readable event lines *)
}

type result = {
  final : program;
      (** the optimized program: the converged one, else the latest whose
          outputs matched the reference *)
  iterations : int;  (** total verification iterations (Table III) *)
  incorrect_iterations : int;  (** iterations spoiled by wrong suggestions *)
  converged : bool;
  telemetry : iteration list;  (** one record per iteration, in order *)
}

let log_lines r =
  List.concat_map (fun it -> it.it_events) r.telemetry

(* Compare designated outputs of a candidate run against the sequential
   reference; small relative tolerance absorbs the GPU's tree-order
   reductions. *)
let outputs_match ~outputs ~reference (o : Accrt.Interp.outcome) =
  Accrt.Value.compare_outputs ~margin:1e-6
    ~reference:(Accrt.Value.outputs reference outputs)
    (Accrt.Value.outputs o.Accrt.Interp.ctx.Accrt.Eval.env outputs)
  = []

(* Source span (first/last sid) covering all compute regions: the statements
   a new data region must enclose. *)
let compute_span prog =
  let sids =
    List.filter_map
      (fun (sid, _, d) -> if Acc.Query.is_compute d.dir then Some sid else None)
      (Acc.Query.directives_of prog)
  in
  match sids with
  | [] -> None
  | s :: rest -> Some (List.fold_left min s rest, List.fold_left max s rest)

let rec apply_action prog (a : Suggest.action) =
  match a with
  | Suggest.Remove_update_var { sid; var; host } ->
      let prog =
        Acc.Edit.map_directive prog ~sid ~f:(fun d ->
            { d with clauses = Acc.Edit.remove_update_var d.clauses ~host var })
      in
      (* Drop the directive entirely if it has no clauses left. *)
      let empty = ref false in
      List.iter
        (fun (s, _, d) ->
          if s = sid && d.dir = Acc_update && d.clauses = [] then empty := true)
        (Acc.Query.directives_of prog);
      if !empty then Acc.Edit.remove_stmt prog ~sid else prog
  | Suggest.Defer_update { sid; var; root; host } ->
      let loop = Acc.Edit.enclosing_loop prog ~sid in
      let prog' =
        apply_action prog (Suggest.Remove_update_var { sid; var; host })
      in
      (match loop with
      | Some l ->
          let upd = Acc.Edit.mk_update ~host [ root ] in
          if host then Acc.Edit.insert_after prog' ~sid:l.sid [ upd ]
          else Acc.Edit.insert_before prog' ~sid:l.sid [ upd ]
      | None -> prog')
  | Suggest.Weaken_clause { sid; var; side } ->
      Acc.Edit.weaken_clause prog ~sid ~var ~side
  | Suggest.Add_data_region { vars } ->
      if Acc.Edit.has_data_region prog then prog
      else (
        match compute_span prog with
        | None -> prog
        | Some (first_sid, last_sid) ->
            Acc.Edit.wrap_span prog ~first_sid ~last_sid
              ~directive:
                (Acc.Edit.mk_data_directive
                   (List.map (fun (v, k, _) -> (v, k)) vars)))
  | Suggest.Add_update { before_sid; var; host } -> (
      if before_sid < 0 then prog
      else
        (* If the stale access lies outside every data region that manages
           [var], an update there would reference freed device memory; the
           right edit is to strengthen the region's clause instead. *)
        match Acc.Edit.regions_with_var prog ~var with
        | [] ->
            Acc.Edit.insert_before prog ~sid:before_sid
              [ Acc.Edit.mk_update ~host [ var ] ]
        | regions ->
            if List.exists (fun (_, _, sids) -> List.mem before_sid sids)
                 regions
            then
              Acc.Edit.insert_before prog ~sid:before_sid
                [ Acc.Edit.mk_update ~host [ var ] ]
            else
              let sid, _, _ = List.hd regions in
              Acc.Edit.strengthen_clause prog ~sid ~var
                ~side:(if host then `Out else `In))
  | Suggest.Report_incorrect _ -> prog

(** Run the interactive optimization loop on [prog].

    [outputs] are the names checked against the sequential reference after
    each round of edits (the kernel-verification safety net of §IV-C).

    Wrong suggestions are detected one iteration late, exactly as in the
    paper: a may-dead-based removal of a transfer the program actually
    needed surfaces as a missing/incorrect-transfer error (and an output
    mismatch) in the next profiled run; the scripted programmer re-inserts
    the transfer, freezes further removal suggestions for that variable, and
    the detour is recorded as an incorrect iteration. *)
let optimize ?(policy = Follow_all) ?(max_iterations = 12) ?(devices = 1)
    ?schedule ~outputs prog =
  (* Work on the translated (inlined) source so report sites and
     directive edits refer to the same statements.  The first iteration
     runs this translation; every later one compiles its edited program. *)
  let first = Compiler.compile_program prog in
  let prog = first.Codegen.Tprog.source in
  let pending = ref (Some first) in
  let compile prog =
    match !pending with
    | Some tp ->
        pending := None;
        tp
    | None -> Compiler.compile_program prog
  in
  let reference = (Accrt.Eval.run_reference prog).Accrt.Eval.env in
  List.iter
    (fun name ->
      if Option.is_none (Accrt.Value.lookup reference name) then
        Fmt.failwith "output '%s' is not a variable of the program" name)
    outputs;
  (* One kernel store for every iteration's run: edits touch data clauses
     only, so later iterations reuse the kernels the first one compiled. *)
  let kcache = Accrt.Compile.create_store () in
  (* vars whose (uncertain) transfer removal was applied, per direction *)
  let removed : (string * bool, unit) Hashtbl.t = Hashtbl.create 8 in
  let frozen_vars : (string, unit) Hashtbl.t = Hashtbl.create 8 in
  let categories =
    List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories
  in
  let telemetry = ref [] in
  (* Per-iteration event lines; [say] appends to the current iteration. *)
  let events = ref [] in
  let say fmt = Fmt.kstr (fun m -> events := m :: !events) fmt in
  let blank_iteration index =
    { it_index = index; it_profile = None; it_report_counts = [];
      it_suggestions = []; it_transfers = 0; it_bytes = 0;
      it_bytes_by_cause = []; it_wasted_bytes = 0; it_peak_bytes = 0;
      it_outputs_ok = false; it_wrong_restored = []; it_reverted = false;
      it_note = ""; it_events = [] }
  in
  let push it =
    telemetry := { it with it_events = List.rev !events } :: !telemetry;
    events := []
  in
  let report_counts reports =
    List.map
      (fun k ->
        ( Accrt.Coherence.kind_name k,
          List.length
            (List.filter
               (fun (r : Accrt.Coherence.report) ->
                 r.Accrt.Coherence.r_kind = k)
               reports) ))
      [ Accrt.Coherence.Missing; Accrt.Coherence.May_missing;
        Accrt.Coherence.Incorrect; Accrt.Coherence.Redundant;
        Accrt.Coherence.May_redundant ]
  in

  (* Wrong-suggestion tracking is per array root: the suggestion's
     [s_var], which missing-transfer reports name too. *)
  let removal_of (s : Suggest.suggestion) =
    match s.Suggest.s_action with
    | Suggest.Remove_update_var { host; _ } | Suggest.Defer_update { host; _ }
      ->
        Some (s.Suggest.s_var, host)
    | Suggest.Weaken_clause { side; _ } -> Some (s.Suggest.s_var, side = `Out)
    | Suggest.Add_data_region _ | Suggest.Add_update _
    | Suggest.Report_incorrect _ -> None
  in
  (* Region clauses backed only by may-dead evidence suppress transfers
     too: record them so a later missing-transfer error is attributed. *)
  let region_removals (s : Suggest.suggestion) =
    match s.Suggest.s_action with
    | Suggest.Add_data_region { vars } ->
        List.concat_map
          (fun (v, kind, certain) ->
            if certain then []
            else
              (match kind with
              | Minic.Ast.Dk_create -> [ (v, true); (v, false) ]
              | Minic.Ast.Dk_copyin -> [ (v, true) ]
              | Minic.Ast.Dk_copyout -> [ (v, false) ]
              | _ -> []))
          vars
    | _ -> []
  in

  (* A loop that stops without converging hands back the latest program
     whose outputs matched the reference, or the input if none did. *)
  let last_good = ref prog in
  (* Programs the loop reverted from. *)
  let reverted = ref [] in
  let stop iterations incorrect =
    { final = !last_good; iterations; incorrect_iterations = incorrect;
      converged = false; telemetry = List.rev !telemetry }
  in
  let rec loop prog history iterations incorrect =
    if iterations >= max_iterations then stop iterations incorrect
    else begin
      let iterations = iterations + 1 in
      let tr = Obs.Trace.create () in
      (* One data-movement ledger per profiled iteration: its cause/waste
         summary rides along in the telemetry record. *)
      let lg =
        Obs.Ledger.create ~devices
          ~schedule:
            (Gpusim.Device_set.schedule_name
               (Option.value ~default:Gpusim.Device_set.Block schedule))
      in
      let outcome_or_err =
        try
          let tp = Codegen.Checkgen.instrument (compile prog) in
          Ok
            (Accrt.Interp.run ~coherence:true ~devices ?schedule ~obs:tr
               ~ledger:lg ~kcache tp)
        with e -> Error (Printexc.to_string e)
      in
      match outcome_or_err with
      | Error msg -> (
          say "iteration %d: program failed to run (%s)" iterations msg;
          match history with
          | (prev, applied) :: rest ->
              say "iteration %d: reverting previous edits" iterations;
              reverted := prog :: !reverted;
              List.iter
                (fun sg ->
                  match removal_of sg with
                  | Some (v, _) when not sg.Suggest.s_certain ->
                      Hashtbl.replace frozen_vars v ()
                  | _ -> ())
                applied;
              push
                { (blank_iteration iterations) with
                  it_reverted = true;
                  it_note = "failed: " ^ msg };
              loop prev rest iterations (incorrect + 1)
          | [] ->
              push
                { (blank_iteration iterations) with
                  it_note = "failed: " ^ msg };
              stop iterations incorrect)
      | Ok outcome ->
          let correct = outputs_match ~outputs ~reference outcome in
          if correct then last_good := prog;
          let m = Accrt.Interp.metrics outcome in
          let la =
            let cm = outcome.Accrt.Interp.device.Gpusim.Device.cm in
            Obs.Ledger.analyze lg
              ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
              ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth
          in
          let base =
            { (blank_iteration iterations) with
              it_profile = Some (Obs.Profile.of_trace ~categories tr);
              it_report_counts =
                report_counts (Accrt.Interp.reports outcome);
              it_transfers =
                m.Gpusim.Metrics.transfers_h2d
                + m.Gpusim.Metrics.transfers_d2h;
              it_bytes = Gpusim.Metrics.total_bytes m;
              it_bytes_by_cause = la.Obs.Ledger.a_causes;
              it_wasted_bytes = la.Obs.Ledger.a_wasted_bytes;
              it_peak_bytes = Obs.Ledger.peak_bytes la;
              it_outputs_ok = correct }
          in
          let suggestions =
            Suggest.actionable (Suggest.analyze outcome)
            |> List.filter (fun (sg : Suggest.suggestion) ->
                   (match policy with
                   | Follow_all -> true
                   | Conservative -> sg.Suggest.s_certain)
                   &&
                   match removal_of sg with
                   | Some (v, _) ->
                       sg.Suggest.s_certain
                       || not (Hashtbl.mem frozen_vars v)
                   | None -> true)
          in
          (* An Add_update for a variable whose transfer we removed earlier
             means that removal was a wrong suggestion. *)
          let readds =
            List.filter
              (fun (sg : Suggest.suggestion) ->
                match sg.Suggest.s_action with
                | Suggest.Add_update { var; host; _ } ->
                    Hashtbl.mem removed (var, host)
                    || Hashtbl.mem removed (var, not host)
                | _ -> false)
              suggestions
          in
          let incorrect, restored =
            List.fold_left
              (fun (acc, restored) (sg : Suggest.suggestion) ->
                let v = sg.Suggest.s_var in
                if Hashtbl.mem frozen_vars v then (acc, restored)
                else begin
                  Hashtbl.replace frozen_vars v ();
                  say
                    "iteration %d: earlier removal of %s's transfer was a \
                     wrong suggestion (verification reported errors); \
                     restoring it"
                    iterations v;
                  (acc + 1, v :: restored)
                end)
              (incorrect, []) readds
          in
          let base = { base with it_wrong_restored = List.rev restored } in
          let prog' =
            List.fold_left
              (fun p (sg : Suggest.suggestion) ->
                apply_action p sg.Suggest.s_action)
              prog suggestions
          in
          if suggestions = [] then begin
            if not correct then begin
              (* Broken with nothing left to apply: fall back to revert. *)
              match history with
              | (prev, _) :: rest ->
                  say
                    "iteration %d: outputs diverge from the reference; \
                     reverting previous edits"
                    iterations;
                  reverted := prog :: !reverted;
                  push { base with it_reverted = true; it_note = "reverted" };
                  loop prev rest iterations (incorrect + 1)
              | [] ->
                  push { base with it_note = "not converged" };
                  stop iterations incorrect
            end
            else begin
              say "iteration %d: no further suggestions — converged"
                iterations;
              push { base with it_note = "converged" };
              { final = prog; iterations; incorrect_iterations = incorrect;
                converged = true; telemetry = List.rev !telemetry }
            end
          end
          else if
            equal_program prog' prog
            || List.exists (equal_program prog') !reverted
          then begin
            (* The edits change nothing, or rebuild a reverted program:
               applying them again would only repeat this iteration. *)
            say "iteration %d: the suggested edits change nothing new; \
                 stopping"
              iterations;
            push
              { base with
                it_note =
                  "not converged: could not apply "
                  ^ String.concat "; "
                      (List.map
                         (fun (sg : Suggest.suggestion) -> sg.Suggest.s_text)
                         suggestions) };
            stop iterations incorrect
          end
          else begin
            List.iter
              (fun sg -> say "iteration %d: %a" iterations Suggest.pp sg)
              suggestions;
            List.iter
              (fun sg ->
                (match removal_of sg with
                | Some key when not sg.Suggest.s_certain ->
                    Hashtbl.replace removed key ()
                | _ -> ());
                List.iter
                  (fun key -> Hashtbl.replace removed key ())
                  (region_removals sg))
              suggestions;
            push
              { base with
                it_suggestions =
                  List.map
                    (fun (sg : Suggest.suggestion) ->
                      (sg.Suggest.s_text, sg.Suggest.s_certain))
                    suggestions };
            loop prog' ((prog, suggestions) :: history) iterations incorrect
          end
    end
  in
  loop prog [] 0 0

(* ----------------------- telemetry rendering ----------------------- *)

let iter_label i = Fmt.str "iteration %d" i.it_index

(* Consecutive profiled iterations, for inter-iteration diffs. *)
let profile_pairs r =
  let profiled =
    List.filter_map
      (fun it -> Option.map (fun p -> (it, p)) it.it_profile)
      r.telemetry
  in
  let rec pairs = function
    | (ia, pa) :: ((ib, pb) :: _ as rest) ->
        (ia, pa, ib, pb) :: pairs rest
    | _ -> []
  in
  pairs profiled

(** Iteration-by-iteration narrative of the Figure-2 loop, with the
    profile delta of every consecutive pair of profiled iterations — the
    per-step performance attribution that shows which edit paid off. *)
let report ~name r =
  let b = Buffer.create 4096 in
  let pf fmt = Fmt.kstr (Buffer.add_string b) fmt in
  pf "interactive session report for %s\n" name;
  let diffs =
    List.map
      (fun (ia, pa, ib, pb) ->
        ( ib.it_index,
          Obs.Diff.diff ~before_name:(iter_label ia)
            ~after_name:(iter_label ib) ~before:pa ~after:pb () ))
      (profile_pairs r)
  in
  List.iter
    (fun it ->
      let reports_txt =
        String.concat ", "
          (List.filter_map
             (fun (k, n) -> if n > 0 then Some (Fmt.str "%s %d" k n) else None)
             it.it_report_counts)
      in
      pf "iteration %d: outputs %s; reports: %s; %d transfer(s), %d \
          byte(s)%s%s\n"
        it.it_index
        (if it.it_outputs_ok then "ok" else "DIVERGED")
        (if reports_txt = "" then "none" else reports_txt)
        it.it_transfers it.it_bytes
        (match it.it_profile with
        | Some p -> Fmt.str "; profiled total %.9f s" p.Obs.Profile.p_total
        | None -> "")
        (if it.it_note = "" then "" else "; " ^ it.it_note);
      (match List.assoc_opt it.it_index diffs with
      | Some d ->
          pf "  profile delta vs previous profiled iteration: %+.9f s \
              (%+.2f%%)\n"
            d.Obs.Diff.d_delta
            (100.0 *. d.Obs.Diff.d_delta
            /. Float.max (Float.abs d.Obs.Diff.d_total_before) 1e-12);
          List.iter
            (fun c ->
              if c.Obs.Diff.cd_delta <> 0.0 then
                pf "    %-16s %+.9f s\n" c.Obs.Diff.cd_cat
                  c.Obs.Diff.cd_delta)
            d.Obs.Diff.d_totals;
          List.iteri
            (fun i (row : Obs.Diff.row_delta) ->
              if i < 3 then
                pf "    [%s] %s %+.9f s%s\n"
                  (Obs.Diff.verdict_name row.Obs.Diff.rd_verdict)
                  row.Obs.Diff.rd_directive row.Obs.Diff.rd_delta
                  (match Obs.Diff.dominant_cat row with
                  | Some c -> "  (" ^ c ^ ")"
                  | None -> ""))
            (Obs.Diff.movers d)
      | None -> ());
      List.iter
        (fun (text, certain) ->
          pf "  applied: %s [%s]\n" text
            (if certain then "certain" else "verify"))
        it.it_suggestions;
      List.iter
        (fun v -> pf "  restored wrong removal of %s\n" v)
        it.it_wrong_restored)
    r.telemetry;
  pf "result: %s after %d iteration(s), %d incorrect\n"
    (if r.converged then "converged" else "NOT converged")
    r.iterations r.incorrect_iterations;
  (match (r.telemetry, List.rev r.telemetry) with
  | first :: _, last :: _ when first.it_profile <> None ->
      pf "transfers: %d (%d bytes) -> %d (%d bytes)\n" first.it_transfers
        first.it_bytes last.it_transfers last.it_bytes
  | _ -> ());
  Buffer.contents b

(** Schema version of {!to_json}: v2 added the per-iteration data-movement
    ledger summary ([ledger] object per record). *)
let json_version = 2

(** Canonical deterministic JSON export of the telemetry: one record per
    iteration with its embedded profile and ledger summary, plus the
    inter-iteration profile diffs (schema [openarc.obs.session]). *)
let to_json ~name r =
  let module P = Obs.Pjson in
  let counts l = P.Obj (List.map (fun (k, n) -> (k, P.int n)) l) in
  let strs l = P.Arr (List.map (fun s -> P.Str s) l) in
  let record it =
    P.Obj
      [ ("index", P.int it.it_index); ("outputs_ok", P.Bool it.it_outputs_ok);
        ("reverted", P.Bool it.it_reverted); ("note", P.Str it.it_note);
        ("transfers", P.int it.it_transfers); ("bytes", P.int it.it_bytes);
        ("reports", counts it.it_report_counts);
        ( "suggestions",
          P.Arr
            (List.map
               (fun (text, certain) ->
                 P.Obj [ ("text", P.Str text); ("certain", P.Bool certain) ])
               it.it_suggestions) );
        ("wrong_restored", strs it.it_wrong_restored);
        ("events", strs it.it_events);
        ( "ledger",
          P.Obj
            [ ("causes", counts it.it_bytes_by_cause);
              ("wasted_bytes", P.int it.it_wasted_bytes);
              ("peak_bytes", P.int it.it_peak_bytes) ] );
        ( "profile",
          P.opt
            (Obs.Profile.json
               ~name:(Fmt.str "%s#it%d" name it.it_index)
               ~seed:42)
            it.it_profile ) ]
  in
  let delta (ia, pa, ib, pb) =
    Obs.Diff.json
      (Obs.Diff.diff ~before_name:(iter_label ia) ~after_name:(iter_label ib)
         ~before:pa ~after:pb ())
  in
  P.to_string
    (P.Obj
       [ ("schema", P.Str (Obs.Trace.schema ^ ".session"));
         ("version", P.int json_version); ("name", P.Str name);
         ("converged", P.Bool r.converged);
         ("iterations", P.int r.iterations);
         ("incorrect_iterations", P.int r.incorrect_iterations);
         ("records", P.Arr (List.map record r.telemetry));
         ("deltas", P.Arr (List.map delta (profile_pairs r))) ])

(** Dynamic transfer statistics of a program: (transfer count, bytes moved).
    Used to quantify leftover (uncaught) redundancy against the manually
    optimized version. *)
let transfer_stats prog =
  let o = Accrt.Interp.run ~coherence:false (Compiler.compile_program prog) in
  let m = Accrt.Interp.metrics o in
  (m.Gpusim.Metrics.transfers_h2d + m.Gpusim.Metrics.transfers_d2h,
   Gpusim.Metrics.total_bytes m)
