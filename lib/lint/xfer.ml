(** Static transfer diagnostics (compile-time shadow of the §III-B runtime
    coherence reports).

    The abstract state is a pair of stale-bit vectors with one bit per
    tracked array and device — "the CPU/GPU copy of [v] is stale".  The
    instrumented program's coherence events drive gen/kill transfer
    functions exactly mirroring {!Accrt.Coherence} (Coarse mode):

    - [check_read v dev]: after the (potential) report the local copy is
      marked fresh (the runtime's anti-cascade), so the bit is killed;
    - [check_write v dev]: local copy fresh, remote copy stale;
    - [reset_status v dev st]: set the bit per [st];
    - transfer: target copy fresh;
    - free: GPU copy stale.

    Soundness under pointer ambiguity: an event on a name that may denote
    several arrays *gens* into the may-solve only and *kills* from the
    must-solve only, so must-facts stay under-approximate and may-facts
    over-approximate. *)

open Codegen
open Codegen.Tprog
module Varset = Analysis.Varset
module Bitset = Analysis.Bitset
module Dataflow = Analysis.Dataflow

let other = function Cpu -> Gpu | Gpu -> Cpu

type event = {
  ev_node : int;
  ev_kind :
    [ `Read of string * device
    | `Write of string * device
    | `Xfer of xfer ];
  ev_roots : Varset.t;
  ev_loc : Minic.Loc.t;
  ev_sid : int;
}

(* The instrumented program's coherence events in program order, the bit
   of each device copy of a tracked array, and the may- and must-stale
   facts. *)
type facts = {
  events : event list;
  bit : device -> string -> int;
  may : Dataflow.result;
  must : Dataflow.result;
}

let facts (tp : Tprog.t) =
  let tp = Checkgen.instrument tp in
  let cfg = Tcfg.build tp in
  let n = Analysis.Graph.size cfg.Tcfg.graph in
  let tracked v = Varset.mem v tp.tracked in
  let resolve v =
    let r = Varset.filter tracked (Analysis.Alias.resolve tp.alias v) in
    if Varset.is_empty r && tracked v then Varset.singleton v else r
  in
  (* Stale bits: the CPU copies of the tracked arrays in index order, then
     the GPU copies. *)
  let roots = Bitset.index tp.tracked in
  let m = Bitset.width roots in
  let width = 2 * m in
  let bit dev r =
    (match dev with Cpu -> 0 | Gpu -> m) + Option.get (Bitset.find roots r)
  in
  let gen_may = Array.make n [] and kill_may = Array.make n [] in
  let gen_must = Array.make n [] and kill_must = Array.make n [] in
  let set facts i dev roots =
    Varset.iter (fun r -> facts.(i) <- bit dev r :: facts.(i)) roots
  in
  let events = ref [] in
  (* An event on possibly-aliased roots is not definite: it must not gen
     must-facts nor kill may-facts. *)
  let gen i ~definite dev roots =
    set gen_may i dev roots;
    if definite then set gen_must i dev roots
  in
  let kill i ~definite dev roots =
    set kill_must i dev roots;
    if definite then set kill_may i dev roots
  in
  for i = 0 to n - 1 do
    match Tcfg.payload cfg i with
    | Tcfg.Nstmt ts -> (
        let event kind roots =
          events :=
            { ev_node = i; ev_kind = kind; ev_roots = roots;
              ev_loc = ts.tloc; ev_sid = ts.tsid }
            :: !events
        in
        match ts.tkind with
        | Tcheck (Check_read (v, dev)) ->
            let roots = resolve v in
            if not (Varset.is_empty roots) then begin
              let definite = Varset.cardinal roots = 1 in
              kill i ~definite dev roots;
              event (`Read (v, dev)) roots
            end
        | Tcheck (Check_write (v, dev)) ->
            let roots = resolve v in
            if not (Varset.is_empty roots) then begin
              let definite = Varset.cardinal roots = 1 in
              kill i ~definite dev roots;
              gen i ~definite (other dev) roots;
              event (`Write (v, dev)) roots
            end
        | Tcheck (Reset_status (v, dev, st)) ->
            let roots = resolve v in
            if not (Varset.is_empty roots) then begin
              let definite = Varset.cardinal roots = 1 in
              match st with
              | Not_stale -> kill i ~definite dev roots
              | May_stale ->
                  set gen_may i dev roots;
                  set kill_must i dev roots
              | Stale -> gen i ~definite dev roots
            end
        | Txfer x ->
            let roots = resolve x.x_var in
            if not (Varset.is_empty roots) then begin
              let definite = Varset.cardinal roots = 1 in
              let tgt = match x.x_dir with H2D -> Gpu | D2H -> Cpu in
              kill i ~definite tgt roots;
              event (`Xfer x) roots
            end
        | Tfree (v, _) ->
            let roots = resolve v in
            if not (Varset.is_empty roots) then
              gen i ~definite:(Varset.cardinal roots = 1) Gpu roots
        | _ -> ())
    | _ -> ()
  done;
  let reset = Array.make n false in
  let solve meet gen kill =
    Dataflow.solve cfg.Tcfg.plan
      { Dataflow.direction = Dataflow.Forward; meet; width;
        top = Bitset.full width; gen; kill; reset }
  in
  { events = List.rev !events; bit;
    may = solve Dataflow.Union gen_may kill_may;
    must = solve Dataflow.Intersect gen_must kill_must }

let analyze tp =
  let { events; bit; may; must } = facts tp in
  (* Classify every event against the facts flowing into its node. *)
  let diag_of ev =
    let stale facts dev r = Dataflow.mem_input facts ev.ev_node (bit dev r) in
    (* definitely stale, whichever root it is *)
    let all_stale dev facts = Varset.for_all (stale facts dev) ev.ev_roots in
    let any_stale dev facts = Varset.exists (stale facts dev) ev.ev_roots in
    let var = Varset.min_elt ev.ev_roots in
    match ev.ev_kind with
    | `Read (v, dev) ->
        if all_stale dev must then
          Some
            (Diag.mk ~var
               ~fixit:
                 (Diag.Fix_insert_update
                    { before_sid = ev.ev_sid; var; host = dev = Cpu })
               ~code:"ACC-XFER-001" ~severity:Diag.Error ~loc:ev.ev_loc
               (Fmt.str
                  "missing transfer: the %s copy of '%s' is stale at this \
                   read; a transfer from the %s is required first"
                  (device_name dev) v
                  (device_name (other dev))))
        else if any_stale dev may then
          Some
            (Diag.mk ~var ~code:"ACC-XFER-002" ~severity:Diag.Info
               ~loc:ev.ev_loc
               (Fmt.str
                  "the %s copy of '%s' may be stale at this read (stale on \
                   some execution path)"
                  (device_name dev) v))
        else None
    | `Write (v, dev) ->
        if any_stale dev may then
          Some
            (Diag.mk ~var ~code:"ACC-XFER-002" ~severity:Diag.Info
               ~loc:ev.ev_loc
               (Fmt.str
                  "%s writes '%s' while its local copy may be stale; a \
                   transfer is missing unless the write fully overwrites \
                   the data"
                  (device_name dev) v))
        else None
    | `Xfer x ->
        let src, tgt = match x.x_dir with H2D -> (Cpu, Gpu) | D2H -> (Gpu, Cpu) in
        let site = x.x_site.site_label in
        let dir_desc =
          match x.x_dir with
          | H2D -> "from host to device"
          | D2H -> "from device to host"
        in
        if all_stale src must then
          Some
            (Diag.mk ~var ~site ~code:"ACC-XFER-003" ~severity:Diag.Error
               ~loc:x.x_site.site_loc
               (Fmt.str
                  "incorrect transfer: copying '%s' %s in %s ships an \
                   outdated value (the %s copy is stale here)"
                  var dir_desc site (device_name src)))
        else if not (any_stale tgt may) then
          let fixit =
            match Openarc_core.Suggest.site_kind site with
            | `Update ->
                Some
                  (Diag.Fix_remove_update_var
                     { sid = x.x_site.site_sid; var; host = x.x_dir = D2H })
            | `Data | `Region ->
                Some
                  (Diag.Fix_weaken_clause
                     { sid = x.x_site.site_sid; var;
                       side = (match x.x_dir with H2D -> `In | D2H -> `Out) })
            | `Implicit -> None
          in
          Some
            (Diag.mk ~var ~site ?fixit ~code:"ACC-XFER-004"
               ~severity:Diag.Warning ~loc:x.x_site.site_loc
               (Fmt.str
                  "redundant transfer: the %s copy of '%s' is already \
                   up to date whenever %s copies it %s"
                  (device_name tgt) var site dir_desc))
        else if not (all_stale tgt must) then
          Some
            (Diag.mk ~var ~site ~code:"ACC-XFER-005" ~severity:Diag.Info
               ~loc:x.x_site.site_loc
               (Fmt.str
                  "copying '%s' %s in %s may be redundant (the %s copy is \
                   already up to date on some execution path)"
                  var dir_desc site (device_name tgt)))
        else None
  in
  List.filter_map diag_of events

let solve_words tp =
  let f = facts tp in
  Dataflow.stored_words f.may + Dataflow.stored_words f.must
