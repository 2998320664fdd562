(** First-read / first-write placement analysis (§III-B).

    A host access of array [v] at node [n] needs a coherence check only if it
    can be the first access of its kind since program entry or since the most
    recent GPU kernel call (kernels are the only events that change CPU-side
    staleness).  Forward, all-path "seen" analysis with kernel nodes
    resetting the fact; an access is "first" when not seen on {e all}
    incoming paths. *)

open Analysis
open Tprog

type t = {
  first_read : Varset.t array;
  first_write : Varset.t array;
  words : int;  (** words of facts its two solves keep *)
}

let compute (tp : Tprog.t) (cfg : Tcfg.t) (sets : Tcfg.sets) ~main =
  let names =
    Array.fold_left Varset.union Varset.empty
      (Array.append sets.Tcfg.name_read sets.Tcfg.name_write)
  in
  let index = Bitset.index names in
  let width = Bitset.width index in
  let universe = Varset.union tp.tracked main in
  (* Facts start at every accessed name in [main]'s scope or tracked. *)
  let top = Bitset.of_varset index (Varset.inter names universe) in
  (* Seen so far: gen the node's accesses; kernel nodes reset the fact. *)
  let solve_seen access =
    Dataflow.solve cfg.Tcfg.plan
      { direction = Dataflow.Forward; meet = Dataflow.Intersect; width; top;
        gen =
          Array.mapi
            (fun i a ->
              if sets.Tcfg.is_kernel.(i) then [] else Bitset.bits index a)
            access;
        kill = Array.make (Array.length access) [];
        reset = sets.Tcfg.is_kernel }
  in
  (* An access is first where it is not seen on entry to its node. *)
  let first access =
    let seen = solve_seen access in
    ( Array.mapi
        (fun i a ->
          Varset.filter
            (fun v ->
              match Bitset.find index v with
              | Some b -> not (Dataflow.mem_input seen i b)
              | None -> true)
            a)
        access,
      Dataflow.stored_words seen )
  in
  (* Placement is computed over accessed *names* (pointers included): the
     runtime resolves a name to its dynamic root, so a check on a pointer is
     precise even where static alias analysis is not. *)
  let first_read, read_words = first sets.Tcfg.name_read in
  let first_write, write_words = first sets.Tcfg.name_write in
  { first_read; first_write; words = read_words + write_words }
