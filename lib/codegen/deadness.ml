(** Algorithm 1 of the paper: may-dead / must-dead / may-live analysis of a
    device's copies of the tracked arrays.

    For device [D], a copy of array [v] is:
    - {e may-live} after node [n] if some following path reads it (on [D])
      before writing it;
    - {e may-dead} if every following path writes it first — only *may*,
      because at whole-array granularity the write can be partial;
    - {e must-dead} if it is never accessed again.

    Unlike the paper's Algorithm 1 we take [KILL] = (empty): the analysis
    asks only about device [D]'s own *future computation accesses*.  The
    runtime consumes deadness through [reset_status], whose not-stale mark
    declares future transfers into the copy redundant; if remote-writes
    could erase liveness (the paper's KILL), a needed transfer that
    re-delivers the value just before a host read would itself be flagged
    redundant.  With KILL empty the reset is sound at array granularity.

    Unresolved pointer aliasing degrades results two ways, mirroring the
    paper's discussion (§IV-C): accesses that the compiler only sees through
    an ambiguous pointer are invisible to the analysis (handled in
    {!Tcfg.access_sets}), and must-dead facts about arrays reachable from an
    ambiguous pointer are weakened to may-dead. *)

open Analysis
open Tprog

type dstatus = Live | May_dead | Must_dead

type facts = {
  index : Bitset.index;  (** the tracked arrays *)
  live : Dataflow.result;  (** its input is the paper's OUT_Live per node *)
  dead : Dataflow.result;  (** its input is the paper's OUT_Dead per node *)
  weakened : Varset.t;  (** arrays whose must-dead facts are unreliable *)
}

type t = { cpu : facts; gpu : facts }

let compute (tp : Tprog.t) (cfg : Tcfg.t) (sets : Tcfg.sets) =
  let index = Bitset.index tp.tracked in
  let width = Bitset.width index in
  let bits = Array.map (Bitset.bits index) in
  let reset = Array.make (Tcfg.size cfg) false in
  let solve meet gen kill =
    Dataflow.solve cfg.Tcfg.plan
      { direction = Dataflow.Backward; meet; width; top = Bitset.full width;
        gen; kill; reset }
  in
  let weakened =
    Varset.fold
      (fun ptr acc -> Varset.union acc (Alias.resolve tp.alias ptr))
      (Varset.filter (Alias.is_ambiguous tp.alias)
         (Varset.of_list
            (Minic.Typecheck.Smap.fold (fun v _ l -> v :: l)
               (Minic.Typecheck.function_vars tp.env "main") [])))
      Varset.empty
  in
  (* Transfers are excluded from DEF/USE: the copies they perform are the
     objects of the optimization, not evidence of the value being used. Only
     genuine computation accesses (host statements; kernels) count. *)
  let device use def =
    let use_bits = bits use in
    (* With KILL empty: IN_Live(n) = OUT_Live(n) - DEF(n) + USE(n) *)
    let live = solve Dataflow.Union use_bits (bits def) in
    (* IN_Dead(n) = OUT_Dead(n) + DEF(n) - USE(n) *)
    let dead =
      solve Dataflow.Intersect (bits (Array.map2 Varset.diff def use)) use_bits
    in
    { index; live; dead; weakened }
  in
  { cpu = device sets.Tcfg.host_read sets.Tcfg.host_write;
    gpu = device sets.Tcfg.kern_read sets.Tcfg.kern_write }

let stored_words { cpu; gpu } =
  let words f = Dataflow.stored_words f.live + Dataflow.stored_words f.dead in
  words cpu + words gpu

(** Deadness status of device copy [v] at the program point {e after} node
    [n].  For a Backward solve a node's input is the meet over its
    successors: the paper's OUT(n). *)
let status_after f n v =
  match Bitset.find f.index v with
  | Some i when Dataflow.mem_input f.live n i -> Live
  | Some i when Dataflow.mem_input f.dead n i -> May_dead
  | Some _ | None -> if Varset.mem v f.weakened then May_dead else Must_dead

let status_name = function
  | Live -> "live"
  | May_dead -> "may-dead"
  | Must_dead -> "must-dead"
