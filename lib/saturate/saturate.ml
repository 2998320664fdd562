(** Search-based automatic directive optimizer (ACC Saturator-style,
    arXiv 2306.13002).

    The data-movement ledger ({!Obs.Ledger}) already attributes every DMA
    transfer to a source site and prices the counterfactual rewrite that
    would eliminate it (hoist / copy→present / merge, "apply" verdicts
    only).  This module closes the loop: it turns those verdicts into
    concrete {!Acc.Edit} program rewrites — plus a purely structural
    kernel-fusion transformation the ledger cannot see — and runs a
    greedy-with-rollback search over them.

    Each step applies the highest-predicted-saving candidate and walks a
    validation ladder before committing:

    + print→reparse round trip to the structurally identical AST (the
      patched program must survive being written out);
    + static validity: the reparsed candidate compiles through
      {!Openarc_core.Compiler} (directive well-formedness, typechecking),
      once — every later rung, and the next step's ledger run, uses that
      one translation;
    + §III-A kernel verification with the symbolic tier first
      ({!Openarc_core.Kernel_verify.verify_tprog} [~symbolic:true]), so proved
      kernels cost zero device launches.  Verification demotes every
      transfer, so its verdict cannot depend on data clauses: it runs
      once per kernel set — lazily for the original program, and for
      each fusion candidate — and a hoist, present or merge candidate
      takes its parent's verdict;
    + identical designated host outputs (the result comparator at
      margin 0) to the one reference run, the *original* program under
      the tree walker on one device: the candidate under the tree walker
      on one device, and under the compiled engine on every checked
      device-set size (1/2/4 by default), must each reproduce them.  The
      engines agree bit for bit on device sets, so the tree walker runs
      once, as the measurement run;
    + measured corroboration: the diff-profile Mem-Transfer delta of the
      patched program must land within 0.25–4x of the ledger's predicted
      [saved_s] (the memtrace confirmation band).  The profile comes from
      the previous rung's traced tree-engine single-device run, so no
      configuration runs twice.

    The reference run is also the "before" measurement and the check that
    the original program binds every output.  A candidate failing any
    rung is rolled back and blacklisted; after an accepted step the
    ledger re-runs on the patched program, so later candidates are
    ranked against the *remaining* waste.  A rejection leaves the
    program as it was, so the next step reuses its ledger run.  The
    search stops when no material candidate is left (0.5% of the modeled
    transfer time) or the step budget is exhausted.

    Each compiled-engine validation run of a candidate compiles the
    kernels it launches once, and the search sums those runs' untraced
    compile counts ([Interp.outcome]'s [compiles] and [compile_hits],
    reported as [engine_compiles] and [engine_compile_hits]; a hit is any
    later runner call of a compiled kernel: a launch, or one shard of a
    multi-device launch). *)

open Minic

(* ------------------------------------------------------------------ *)
(* Candidates                                                          *)
(* ------------------------------------------------------------------ *)

type kind = Hoist | Present | Merge | Fuse

let kind_name = function
  | Hoist -> "hoist"
  | Present -> "present"
  | Merge -> "merge"
  | Fuse -> "fuse"

type candidate = {
  c_kind : kind;
  c_label : string;  (** stable human-readable identity (blacklist key) *)
  c_sites : string list;  (** contributing ledger site labels *)
  c_predicted_s : float;  (** modeled DMA saving (ledger-priced) *)
  c_edit : Ast.program -> Ast.program;
}

type step = {
  st_index : int;
  st_kind : kind;
  st_label : string;
  st_sites : string list;
  st_predicted_s : float;
  st_measured_s : float;  (** diff-profile Mem-Transfer delta *)
  st_accepted : bool;
  st_reason : string;  (** "accepted" or "rejected: ..." *)
}

type t = {
  r_name : string;
  r_seed : int;
  r_devices : int;
  r_program : Ast.program;  (** final program (edits applied) *)
  r_steps : step list;  (** in search order *)
  r_accepted : int;
  r_predicted_s : float;  (** accepted total *)
  r_measured_s : float;  (** accepted total, measured side *)
  r_total_before : float;  (** simulated time, uninstrumented *)
  r_total_after : float;
  r_before : Obs.Profile.t;
  r_after : Obs.Profile.t;
  r_compile_hits : int;
      (** compiled-kernel reuses, summed over the compiled runs *)
  r_compiles : int;  (** kernel compiles, summed over the compiled runs *)
}

type config = {
  max_steps : int;  (** candidate attempts (accepted or rejected) *)
  check_devices : int list;  (** device-set sizes of the output check *)
  seed : int;
}

let default_config = { max_steps = 16; check_devices = [ 1; 2; 4 ]; seed = 42 }

(* A candidate is material when it predicts at least this share of the
   modeled transfer time. *)
let materiality = 0.005

(* ------------------------------------------------------------------ *)
(* Shared runners                                                      *)
(* ------------------------------------------------------------------ *)

let profile_categories =
  List.map Gpusim.Metrics.category_name Gpusim.Metrics.all_categories

let mem_cat = Gpusim.Metrics.category_name Gpusim.Metrics.Mem_transfer

(* One instrumented, coherence-on, ledger-attached run of a translation:
   the scoring side of the search.  Conservation against the metrics
   accumulators is an invariant, not a tolerance. *)
let ledger_analysis ~name ~seed ~devices tp =
  let tp = Codegen.Checkgen.instrument tp in
  let lg =
    Obs.Ledger.create ~devices
      ~schedule:(Gpusim.Device_set.schedule_name Gpusim.Device_set.Block)
  in
  let o =
    Accrt.Interp.exec
      { Accrt.Interp.default with seed; devices }
      { Accrt.Interp.detached with ledger = Some lg }
      tp
  in
  let mh, md =
    Array.fold_left
      (fun (h, d) dev ->
        let m = dev.Gpusim.Device.metrics in
        (h + m.Gpusim.Metrics.bytes_h2d, d + m.Gpusim.Metrics.bytes_d2h))
      (0, 0) o.Accrt.Interp.devset.Gpusim.Device_set.devices
  in
  let lh, ld = Obs.Ledger.totals lg in
  if lh <> mh || ld <> md then
    Fmt.failwith
      "saturate: ledger conservation violated for %s (h2d %d vs %d, d2h \
       %d vs %d)"
      name lh mh ld md;
  let cm = o.Accrt.Interp.device.Gpusim.Device.cm in
  ( Obs.Ledger.analyze lg
      ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
      ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth,
    o )

(* Measured Mem-Transfer saving of [after] over [before] (positive = the
   patched program moves less). *)
let mem_saving before after =
  let d = Obs.Diff.diff ~before ~after () in
  match
    List.find_opt (fun c -> c.Obs.Diff.cd_cat = mem_cat) d.Obs.Diff.d_totals
  with
  | Some c -> -.c.Obs.Diff.cd_delta
  | None -> 0.0

(* ------------------------------------------------------------------ *)
(* Candidate generation                                                *)
(* ------------------------------------------------------------------ *)

(* (site label, loc string) -> source sid, from the executed sites of the
   scoring run — the bridge from ledger site reports back to the AST. *)
let site_sid_table (o : Accrt.Interp.outcome) =
  let tbl = Hashtbl.create 64 in
  Hashtbl.iter
    (fun _ ((site : Codegen.Tprog.site), _, _) ->
      Hashtbl.replace tbl
        (site.Codegen.Tprog.site_label,
         Minic.Loc.to_string site.Codegen.Tprog.site_loc)
        site.Codegen.Tprog.site_sid)
    o.Accrt.Interp.sites;
  tbl

(* The apply-verdict [rewrite] sites the scoring run executed, grouped by
   [key sid site] (None drops the site): one (key, sites) pair per group,
   each group's (sid, site) pairs in ledger order. *)
let group_sites ~rewrite (a : Obs.Ledger.analysis) sidtbl key =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (s : Obs.Ledger.site_report) ->
      if s.Obs.Ledger.s_verdict = "apply" && s.Obs.Ledger.s_rewrite = rewrite
      then
        match Hashtbl.find_opt sidtbl (s.Obs.Ledger.s_site, s.Obs.Ledger.s_loc)
        with
        | None -> ()
        | Some sid -> (
            match key sid s with
            | None -> ()
            | Some k -> (
                match Hashtbl.find_opt groups k with
                | Some sites -> sites := (sid, s) :: !sites
                | None -> Hashtbl.add groups k (ref [ (sid, s) ]))))
    a.Obs.Ledger.a_sites;
  Hashtbl.fold (fun k sites acc -> (k, List.rev !sites) :: acc) groups []

(* A candidate grown from ledger [sites]: it names them and predicts the
   sum of their savings. *)
let of_sites c_kind c_label sites c_edit =
  { c_kind;
    c_label;
    c_sites = List.map (fun s -> s.Obs.Ledger.s_site) sites;
    c_predicted_s =
      List.fold_left (fun a s -> a +. s.Obs.Ledger.s_saved_s) 0.0 sites;
    c_edit }

(* Is [v] written by any translated kernel whose source statement lies in
   [sids]?  Decides copy vs copyin when a data region is introduced. *)
let written_within (tp : Codegen.Tprog.t) sids v =
  Array.exists
    (fun (k : Codegen.Tprog.kernel) ->
      List.mem k.Codegen.Tprog.k_sid sids
      && Analysis.Varset.mem v k.Codegen.Tprog.k_arrays_written)
    tp.Codegen.Tprog.kernels

(* Hoist: every apply-verdict "hoist" site under the same innermost
   enclosing loop becomes one candidate — wrap that loop in a data region
   naming each hoisted array (copy when some kernel under the loop writes
   it, copyin otherwise).  The static presence check then elides every
   per-iteration transfer the ledger priced. *)
let hoist_candidates prog (tp : Codegen.Tprog.t) analysis sidtbl =
  let loop_of sid = Acc.Edit.enclosing_loop prog ~sid in
  List.map
    (fun (loop_sid, entries) ->
      (* every site of the group has this innermost enclosing loop *)
      let loop = Option.get (loop_of (fst (List.hd entries))) in
      let sites = List.map snd entries in
      let loop_sids = Acc.Edit.sids_of_stmt loop in
      let vars =
        List.sort_uniq compare
          (List.map (fun s -> s.Obs.Ledger.s_array) sites)
      in
      let clauses =
        List.map
          (fun v ->
            ( v,
              if written_within tp loop_sids v then Ast.Dk_copy
              else Ast.Dk_copyin ))
          vars
      in
      let directive = Acc.Edit.mk_data_directive ~loc:loop.Ast.sloc clauses in
      of_sites Hoist
        (Fmt.str "hoist data(%s) around loop at %s"
           (String.concat ", "
              (List.map
                 (fun (v, k) -> Pretty.data_kind_str k ^ " " ^ v)
                 clauses))
           (Minic.Loc.to_string loop.Ast.sloc))
        sites
        (fun p -> Acc.Edit.wrap_stmt p ~sid:loop_sid ~directive))
    (group_sites ~rewrite:"hoist" analysis sidtbl (fun sid _ ->
         Option.map (fun (loop : Ast.stmt) -> loop.Ast.sid) (loop_of sid)))

(* Present: an apply-verdict "present" site proved every transfer in its
   direction redundant (the destination was already fresh).  The edit
   pins the array to an explicit clause on the carrying directive that
   keeps only the still-needed direction: both directions redundant →
   present; uploads redundant → copyout (or present when nothing under
   the directive writes it); downloads redundant → copyin. *)
let present_candidates prog (tp : Codegen.Tprog.t) analysis sidtbl =
  (* Subtree sids of every statement, resolved lazily per directive. *)
  let subtree_sids sid =
    let result = ref [] in
    List.iter
      (fun (f : Ast.func) ->
        Ast.iter_stmts
          (fun st ->
            if st.Ast.sid = sid then result := Acc.Edit.sids_of_stmt st)
          f.Ast.f_body)
      (Ast.functions prog);
    !result
  in
  List.map
    (fun ((sid, var), entries) ->
      let sites = List.map snd entries in
      let has dir =
        List.exists (fun s -> s.Obs.Ledger.s_dir = dir) sites
      in
      let written = written_within tp (subtree_sids sid) var in
      (* An enclosing region naming the array makes [present] legal;
         otherwise this directive is the array's allocator and the
         proven-redundant directions weaken to the create family. *)
      let covered =
        List.exists
          (fun (rsid, _, rsids) -> rsid <> sid && List.mem sid rsids)
          (Acc.Edit.regions_with_var prog ~var)
      in
      let kind =
        match (has Obs.Ledger.H2d, has Obs.Ledger.D2h) with
        | true, true -> if covered then Ast.Dk_present else Ast.Dk_create
        | true, false ->
            if written then Ast.Dk_copyout
            else if covered then Ast.Dk_present
            else Ast.Dk_create
        | false, true -> Ast.Dk_copyin
        | false, false -> if covered then Ast.Dk_present else Ast.Dk_create
      in
      of_sites Present
        (Fmt.str "pin %s to %s on %s" var (Pretty.data_kind_str kind)
           (match sites with
           | s :: _ -> s.Obs.Ledger.s_site ^ " at " ^ s.Obs.Ledger.s_loc
           | [] -> Fmt.str "sid %d" sid))
        sites
        (fun p ->
          Acc.Edit.map_directive p ~sid ~f:(fun d ->
              { d with
                Ast.clauses = Acc.Edit.set_data_kind d.Ast.clauses var kind })))
    (group_sites ~rewrite:"present" analysis sidtbl (fun sid s ->
         Some (sid, s.Obs.Ledger.s_array)))

(* Merge: apply-verdict "merge" sites are D2H→H2D round trips between
   adjacent kernels on the same array.  The edit wraps the top-level span
   of main covering every such site for that array in one data region, so
   the intermediate round trip stays on the device. *)
let merge_candidates (tp : Codegen.Tprog.t) analysis sidtbl =
  List.map
    (fun (var, entries) ->
      let sids = List.map fst entries in
      (* sids are assigned in parse order, so min/max bound the source
         span the new region must cover. *)
      let first_sid = List.fold_left min (List.hd sids) sids in
      let last_sid = List.fold_left max (List.hd sids) sids in
      let written =
        Array.exists
          (fun (k : Codegen.Tprog.kernel) ->
            Analysis.Varset.mem var k.Codegen.Tprog.k_arrays_written)
          tp.Codegen.Tprog.kernels
      in
      let kind = if written then Ast.Dk_copy else Ast.Dk_copyin in
      let directive = Acc.Edit.mk_data_directive [ (var, kind) ] in
      of_sites Merge
        (Fmt.str "merge data(%s %s) across sids %d-%d"
           (Pretty.data_kind_str kind) var first_sid last_sid)
        (List.map snd entries)
        (fun p -> Acc.Edit.wrap_span p ~first_sid ~last_sid ~directive))
    (group_sites ~rewrite:"merge" analysis sidtbl (fun _ s ->
         Some s.Obs.Ledger.s_array))

(* Replace the adjacent pair [s1; s2] of compute-loop statements with one
   directive carrying the fused loop (clause union, bodies concatenated
   under the first header). *)
let fuse_edit prog (s1 : Ast.stmt) (s2 : Ast.stmt) =
  match (s1.Ast.skind, s2.Ast.skind) with
  | Ast.Sacc (d1, Some b1), Ast.Sacc (d2, Some b2) -> (
      match (b1.Ast.skind, b2.Ast.skind) with
      | Ast.Sfor (i, c, st, body1), Ast.Sfor (_, _, _, body2) ->
          let clauses =
            d1.Ast.clauses
            @ List.filter
                (fun cl -> not (List.mem cl d1.Ast.clauses))
                d2.Ast.clauses
          in
          let fused =
            Ast.mk_stmt ~loc:s1.Ast.sloc
              (Ast.Sacc
                 ( { d1 with Ast.clauses },
                   Some
                     (Ast.mk_stmt ~loc:b1.Ast.sloc
                        (Ast.Sfor (i, c, st, body1 @ body2))) ))
          in
          Acc.Edit.expand_program
            (fun s ->
              if s.Ast.sid = s1.Ast.sid then [ fused ]
              else if s.Ast.sid = s2.Ast.sid then []
              else [ s ])
            prog
      | _ -> prog)
  | _ -> prog

(* Fuse: purely structural — two adjacent compute-loop directives whose
   loops have structurally equal headers, no reductions, and disjoint
   write footprints fuse into one kernel; the shared arrays' second
   upload/download round disappears with the second launch.  The ledger
   has no "fuse" verdict, so the saving is priced from the second
   kernel's transfer sites on shared arrays under the same noise-free
   transfer model the ledger uses. *)
let fuse_candidates prog (tp : Codegen.Tprog.t) analysis ~pcie_latency
    ~pcie_bandwidth =
  let kernel_at sid =
    Array.fold_left
      (fun found (k : Codegen.Tprog.kernel) ->
        if k.Codegen.Tprog.k_sid = sid then Some k else found)
      None tp.Codegen.Tprog.kernels
  in
  let is_compute_loop (d : Ast.directive) =
    match d.Ast.dir with
    | Ast.Acc_parallel_loop | Ast.Acc_kernels_loop -> true
    | _ -> false
  in
  let cands = ref [] in
  let consider (s1 : Ast.stmt) (s2 : Ast.stmt) =
    match (s1.Ast.skind, s2.Ast.skind) with
    | Ast.Sacc (d1, Some b1), Ast.Sacc (d2, Some b2)
      when is_compute_loop d1 && is_compute_loop d2 -> (
        match
          (b1.Ast.skind, b2.Ast.skind, kernel_at s1.Ast.sid,
           kernel_at s2.Ast.sid)
        with
        | Ast.Sfor (i1, c1, st1, _), Ast.Sfor (i2, c2, st2, _),
          Some k1, Some k2 ->
            let open Codegen.Tprog in
            let headers_equal =
              Option.equal Ast.equal_stmt i1 i2
              && Option.equal Ast.equal_expr c1 c2
              && Option.equal Ast.equal_stmt st1 st2
            in
            let r1 = k1.k_arrays_read and w1 = k1.k_arrays_written in
            let r2 = k2.k_arrays_read and w2 = k2.k_arrays_written in
            let disjoint =
              Analysis.Varset.disjoint w1 (Analysis.Varset.union r2 w2)
              && Analysis.Varset.disjoint w2 r1
            in
            let shared =
              Analysis.Varset.inter
                (Analysis.Varset.union r1 w1)
                (Analysis.Varset.union r2 w2)
            in
            if
              headers_equal && disjoint
              && (not k1.k_has_reduction) && (not k2.k_has_reduction)
              && (not k1.k_seq) && (not k2.k_seq)
              && not (Analysis.Varset.is_empty shared)
            then begin
              (* Price the second kernel's transfer sites on shared
                 arrays: fused, those transfers are subsumed by the first
                 kernel's.  Its implicit transfers are labelled by the
                 kernel, those of its directive's data clauses by the
                 region. *)
              let owned =
                [ k2.k_name ^ "."; Printf.sprintf "region%d." s2.Ast.sid ]
              in
              let saved, labels =
                List.fold_left
                  (fun (acc, ls) (s : Obs.Ledger.site_report) ->
                    if
                      List.exists
                        (fun prefix ->
                          String.starts_with ~prefix s.Obs.Ledger.s_site)
                        owned
                      && Analysis.Varset.mem s.Obs.Ledger.s_array shared
                    then
                      ( acc
                        +. (float_of_int s.Obs.Ledger.s_transfers
                            *. pcie_latency)
                        +. (float_of_int s.Obs.Ledger.s_bytes
                            /. pcie_bandwidth),
                        s.Obs.Ledger.s_site :: ls )
                    else (acc, ls))
                  (0.0, []) analysis.Obs.Ledger.a_sites
              in
              if saved > 0.0 then
                cands :=
                  { c_kind = Fuse;
                    c_label =
                      Fmt.str "fuse %s into %s" k2.k_name k1.k_name;
                    c_sites = List.rev labels;
                    c_predicted_s = saved;
                    c_edit = (fun p -> fuse_edit p s1 s2) }
                  :: !cands
            end
        | _ -> ())
    | _ -> ()
  in
  let rec scan_block b =
    (match b with
    | s1 :: (s2 :: _ as rest) ->
        consider s1 s2;
        scan_block rest
    | _ -> ());
    List.iter scan_stmt b
  and scan_stmt (s : Ast.stmt) =
    match s.Ast.skind with
    | Ast.Sif (_, b1, b2) -> scan_block b1; scan_block b2
    | Ast.Swhile (_, b) | Ast.Sfor (_, _, _, b) | Ast.Sblock b ->
        scan_block b
    | Ast.Sacc (_, body) -> Option.iter scan_stmt body
    | Ast.Sskip | Ast.Sexpr _ | Ast.Sassign _ | Ast.Sdecl _ | Ast.Sreturn _
    | Ast.Sbreak | Ast.Scontinue -> ()
  in
  List.iter (fun (f : Ast.func) -> scan_block f.Ast.f_body)
    (Ast.functions prog);
  !cands

let candidates prog tp analysis outcome =
  let sidtbl = site_sid_table outcome in
  let cm = outcome.Accrt.Interp.device.Gpusim.Device.cm in
  hoist_candidates prog tp analysis sidtbl
  @ present_candidates prog tp analysis sidtbl
  @ merge_candidates tp analysis sidtbl
  @ fuse_candidates prog tp analysis
      ~pcie_latency:cm.Gpusim.Costmodel.pcie_latency
      ~pcie_bandwidth:cm.Gpusim.Costmodel.pcie_bandwidth

(* ------------------------------------------------------------------ *)
(* Search                                                              *)
(* ------------------------------------------------------------------ *)

exception Rejected of string

(* The kernel-verification verdict of a translation, symbolic tier first:
   [Ok ()], or the reason the verify rung rejects a candidate with it. *)
let verdict tp =
  match Openarc_core.Kernel_verify.verify_tprog ~symbolic:true tp with
  | exception e ->
      Error ("kernel verification crashed: " ^ Printexc.to_string e)
  | kv -> (
      match Openarc_core.Kernel_verify.detected_errors kv with
      | [] -> Ok ()
      | errs ->
          Error
            (Fmt.str "kernel verification failed (%d kernel(s))"
               (List.length errs)))

let run ?(config = default_config) ~name ~outputs prog0 =
  if not (List.mem 1 config.check_devices) then
    invalid_arg "Saturate.run: check_devices must contain 1";
  (* Start from canonical sids (a print/reparse round trip numbers the
     statements from 1): sids leak into directive-site labels
     (`data<sid>.copyin(v)`) and from there into the report, so the
     search must not observe how its input was built. *)
  let tp0 =
    Openarc_core.Compiler.compile_program
      (Parser.parse_string ~file:"<saturate>" (Pretty.program_to_string prog0))
  in
  (* Edit the translated (inlined) source, whose statements the ledger's
     sites name. *)
  let prog0 = tp0.Codegen.Tprog.source in
  let seed = config.seed in
  let hits = ref 0 and compiles = ref 0 in
  (* Compiled-engine run, untraced; its compile counts accumulate into
     the search-wide reuse/compile totals. *)
  let compiled_run ~devices tp =
    let o =
      Accrt.Interp.exec
        { Accrt.Interp.default with
          engine = Accrt.Engine.Compiled; seed; devices }
        Accrt.Interp.detached tp
    in
    hits := !hits + o.Accrt.Interp.compile_hits;
    compiles := !compiles + o.Accrt.Interp.compiles;
    o
  in
  (* The measured side of every prediction: a traced tree-engine run on
     one device (the committed profile baseline's configuration) — its
     outcome, profile and simulated total. *)
  let measured_run tp =
    let tr = Obs.Trace.create () in
    let o =
      Accrt.Interp.exec
        { Accrt.Interp.default with
          engine = Accrt.Engine.Tree; seed; devices = 1 }
        { Accrt.Interp.detached with trace = Some tr }
        tp
    in
    ( o,
      (Obs.Profile.of_trace ~categories:profile_categories tr,
       Gpusim.Metrics.total_time (Accrt.Interp.metrics o)) )
  in
  (* The checked configurations: both engines on one device, the
     compiled engine alone on every other size.  The tree walker runs
     once, as the measurement run: on a device set it reproduces the
     compiled engine's outputs bit for bit, so a tree run there would
     only repeat the compiled run's check.  Every ladder holds the
     one-device entry ([check_devices] contains 1). *)
  let configs =
    List.concat_map
      (fun devices ->
        if devices = 1 then
          [ (Accrt.Engine.Tree, 1); (Accrt.Engine.Compiled, 1) ]
        else [ (Accrt.Engine.Compiled, devices) ])
      config.check_devices
  in
  (* All the search keeps of a run is its designated outputs: the outcome
     itself holds the run's device set, and through its devices'
     observers the whole trace. *)
  let outputs_of o =
    Accrt.Value.outputs o.Accrt.Interp.ctx.Accrt.Eval.env outputs
  in
  (* The designated outputs of one run of a checked configuration, and
     its measurement when it is the tree run. *)
  let run_config tp (engine, devices) =
    match engine with
    | Accrt.Engine.Tree ->
        let o, m = measured_run tp in
        (outputs_of o, Some m)
    | Accrt.Engine.Compiled -> (outputs_of (compiled_run ~devices tp), None)
  in
  (* The one reference run: the *original* program under the tree walker
     on one device.  It is the "before" measurement, and its designated
     outputs are what every checked configuration of every candidate must
     reproduce. *)
  let reference, before =
    let o, m = measured_run tp0 in
    (outputs_of o, m)
  in
  (* An output the original program never binds would read as a
     divergence of every candidate: refuse the request instead. *)
  List.iter
    (fun (name, binding) ->
      if Option.is_none binding then
        Fmt.failwith "output '%s' is not a variable of the program" name)
    reference;
  (* The verify rung's verdict of the adopted program, computed the first
     time a candidate needs it. *)
  let verified = ref (lazy (verdict tp0)) in
  (* Returns the canonical patched program with its one translation —
     every later rung, and once accepted the next step, runs on it — its
     measurement and its verdict. *)
  let validate c cand_prog =
    (* 1. print -> reparse round trip.  The reparse numbers statements
       from 1, so the statements an edit created get the sids their
       position in the printed program gives them. *)
    let printed = Pretty.program_to_string cand_prog in
    let cand_prog =
      match Parser.parse_string ~file:"<saturate>" printed with
      | reparsed when Ast.equal_program reparsed cand_prog -> reparsed
      | _ -> raise (Rejected "print/reparse round trip diverged")
      | exception e ->
          raise
            (Rejected ("patched source unparseable: " ^ Printexc.to_string e))
    in
    (* 2. static validity: the one compilation of the candidate *)
    let tp =
      try Openarc_core.Compiler.compile_program cand_prog
      with e -> raise (Rejected ("invalid program: " ^ Printexc.to_string e))
    in
    (* 3. kernel verification, symbolic tier first.  Verification demotes
       every transfer and feeds each kernel the data the sequential run
       produced, so its verdict cannot depend on data clauses: a hoist,
       present or merge edit keeps its parent's kernels and takes its
       parent's verdict.  A fusion changes kernels, so it runs the rung. *)
    let kernels_verdict =
      match c.c_kind with
      | Hoist | Present | Merge -> !verified
      | Fuse -> Lazy.from_val (verdict tp)
    in
    Result.iter_error (fun reason -> raise (Rejected reason))
      (Lazy.force kernels_verdict);
    (* 4. identical outputs (margin 0): tree x1 and the compiled engine
       at every device-set size must each reproduce the reference, the
       original program's tree x1 outputs.  Directive edits move data,
       they must never change what the host computes on any device set.
       A candidate whose run *crashes* (e.g. a rewrite that breaks an
       allocation invariant) is rejected the same way. *)
    let measurements =
      List.map
        (fun ((engine, devices) as cfg) ->
          let ename = Accrt.Engine.to_string engine in
          let outs, m =
            try run_config tp cfg
            with e ->
              raise
                (Rejected
                   (Fmt.str "run failed (%s engine, %d device(s)): %s" ename
                      devices (Printexc.to_string e)))
          in
          if Accrt.Value.compare_outputs ~margin:0.0 ~reference outs <> []
          then
            raise
              (Rejected
                 (Fmt.str "outputs diverged (%s engine, %d device(s))" ename
                    devices));
          m)
        configs
    in
    (* 5. the measurement: rung 4's tree x1 run *)
    ( cand_prog,
      tp,
      Option.get (List.find_map Fun.id measurements),
      kernels_verdict )
  in
  (* The material candidates of an adopted program, best first, from its
     one scoring run: a rejection leaves the program as it was, so the
     next step reuses them. *)
  let rank prog tp =
    let analysis, outcome = ledger_analysis ~name ~seed ~devices:1 tp in
    let floor = materiality *. analysis.Obs.Ledger.a_transfer_s in
    candidates prog outcome.Accrt.Interp.tprog analysis outcome
    |> List.filter (fun c -> c.c_predicted_s > 0.0 && c.c_predicted_s >= floor)
    |> List.sort (fun a b ->
           match compare b.c_predicted_s a.c_predicted_s with
           | 0 -> compare a.c_label b.c_label
           | c -> c)
  in
  let prog = ref prog0 in
  let current = ref before in  (* measurement of [!prog] *)
  let ranked = ref (lazy (rank prog0 tp0)) in  (* candidates of [!prog] *)
  let steps = ref [] in
  let step_idx = ref 0 in
  let rejected = Hashtbl.create 8 in
  let finished = ref false in
  while (not !finished) && !step_idx < config.max_steps do
    match
      List.filter
        (fun c -> not (Hashtbl.mem rejected c.c_label))
        (Lazy.force !ranked)
    with
    | [] -> finished := true
    | c :: _ -> (
        let index = !step_idx in
        incr step_idx;
        let record ~measured ~accepted ~reason =
          steps :=
            { st_index = index;
              st_kind = c.c_kind;
              st_label = c.c_label;
              st_sites = c.c_sites;
              st_predicted_s = c.c_predicted_s;
              st_measured_s = measured;
              st_accepted = accepted;
              st_reason = reason }
            :: !steps
        in
        let reject reason =
          Hashtbl.replace rejected c.c_label ();
          record ~measured:0.0 ~accepted:false ~reason:("rejected: " ^ reason)
        in
        match c.c_edit !prog with
        | exception e -> reject ("edit failed: " ^ Printexc.to_string e)
        | cand_prog when Ast.equal_program cand_prog !prog ->
            reject "no-op edit"
        | cand_prog -> (
            match validate c cand_prog with
            | exception Rejected reason -> reject reason
            | cand_prog, cand_tp, ((after_profile, _) as m), cand_verified ->
                let measured = mem_saving (fst !current) after_profile in
                if
                  measured >= 0.25 *. c.c_predicted_s
                  && measured <= 4.0 *. c.c_predicted_s
                then begin
                  prog := cand_prog;
                  current := m;
                  verified := cand_verified;
                  ranked := lazy (rank cand_prog cand_tp);
                  record ~measured ~accepted:true ~reason:"accepted"
                end
                else
                  reject
                    (Fmt.str
                       "measured %.9f s outside 0.25-4x of predicted %.9f s"
                       measured c.c_predicted_s)))
  done;
  let before, total_before = before and after, total_after = !current in
  let steps = List.rev !steps in
  let accepted = List.filter (fun s -> s.st_accepted) steps in
  { r_name = name;
    r_seed = seed;
    r_devices = 1;
    r_program = !prog;
    r_steps = steps;
    r_accepted = List.length accepted;
    r_predicted_s =
      List.fold_left (fun a s -> a +. s.st_predicted_s) 0.0 accepted;
    r_measured_s =
      List.fold_left (fun a s -> a +. s.st_measured_s) 0.0 accepted;
    r_total_before = total_before;
    r_total_after = total_after;
    r_before = before;
    r_after = after;
    r_compile_hits = !hits;
    r_compiles = !compiles }

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

let json_version = 1

let json (r : t) =
  let module P = Obs.Pjson in
  let step s =
    P.Obj
      [ ("index", P.int s.st_index); ("kind", P.Str (kind_name s.st_kind));
        ("candidate", P.Str s.st_label);
        ("sites", P.Arr (List.map (fun x -> P.Str x) s.st_sites));
        ("predicted_saved_s", P.fixed 9 s.st_predicted_s);
        ("measured_saved_s", P.fixed 9 s.st_measured_s);
        ("accepted", P.Bool s.st_accepted); ("reason", P.Str s.st_reason) ]
  in
  P.Obj
    [ ("schema", P.Str (Obs.Trace.schema ^ ".saturate"));
      ("version", P.int json_version); ("name", P.Str r.r_name);
      ("seed", P.int r.r_seed); ("devices", P.int r.r_devices);
      ("steps", P.Arr (List.map step r.r_steps));
      ("accepted", P.int r.r_accepted);
      ("predicted_saved_s", P.fixed 9 r.r_predicted_s);
      ("measured_saved_s", P.fixed 9 r.r_measured_s);
      ("total_before_s", P.fixed 9 r.r_total_before);
      ("total_after_s", P.fixed 9 r.r_total_after);
      ("engine_compile_hits", P.int r.r_compile_hits);
      ("engine_compiles", P.int r.r_compiles) ]

let to_json r = Obs.Pjson.to_string (json r)

let pp ppf (r : t) =
  Fmt.pf ppf "saturate %s: %d step(s), %d accepted@." r.r_name
    (List.length r.r_steps) r.r_accepted;
  List.iter
    (fun s ->
      Fmt.pf ppf "  [%d] %-7s %-52s predicted %.9f s%s@." s.st_index
        (kind_name s.st_kind)
        (if String.length s.st_label > 52 then
           String.sub s.st_label 0 49 ^ "..."
         else s.st_label)
        s.st_predicted_s
        (if s.st_accepted then
           Fmt.str "  measured %.9f s  ACCEPTED" s.st_measured_s
         else "  " ^ s.st_reason))
    r.r_steps;
  Fmt.pf ppf
    "  simulated time %.9f s -> %.9f s (%.1f%% reduction); accepted \
     predicted %.9f s, measured %.9f s; %d compiled-kernel reuse(s)@."
    r.r_total_before r.r_total_after
    (if r.r_total_before > 0.0 then
       (r.r_total_before -. r.r_total_after) /. r.r_total_before *. 100.0
     else 0.0)
    r.r_predicted_s r.r_measured_s r.r_compile_hits
