(** Algorithm 2 of the paper: last-write analysis.

    A host write of array [v] at node [n] is a *last write* if no following
    path writes [v] again before the program exit or the next GPU kernel
    call.  These are the points where the compiler places [reset_status]
    calls for dead remote copies.  Backward all-path analysis; kernel nodes
    reset the fact (segments end at kernel boundaries). *)

open Analysis
open Tprog

type t = {
  last : Varset.t array;  (** per node: arrays whose write here is last *)
  words : int;  (** words of facts its solve keeps *)
}

let compute (tp : Tprog.t) (cfg : Tcfg.t) (sets : Tcfg.sets) device =
  let def, kill =
    match device with
    | Cpu -> (sets.Tcfg.host_write, sets.Tcfg.kern_write)
    | Gpu -> (sets.Tcfg.kern_write, sets.Tcfg.host_write)
  in
  let index = Bitset.index tp.tracked in
  let width = Bitset.width index in
  let bits = Bitset.bits index in
  (* IN_Write(n) = OUT_Write(n) + DEF(n) - KILL(n); kernel nodes start a new
     segment, so they reset the fact. *)
  let res =
    Dataflow.solve cfg.Tcfg.plan
      { direction = Dataflow.Backward; meet = Dataflow.Intersect; width;
        top = Bitset.full width;
        gen = Array.map bits (Array.map2 Varset.diff def kill);
        kill =
          Array.mapi
            (fun i k -> if sets.Tcfg.is_kernel.(i) then [] else bits k)
            kill;
        reset = sets.Tcfg.is_kernel }
  in
  (* LAST_Write(n) = IN_Write(n) - OUT_Write(n), restricted to DEF(n).
     A node's input is the meet over its successors (paper's OUT), empty
     after a kernel node. *)
  let last =
    Array.mapi
      (fun i d ->
        Varset.filter
          (fun v ->
            match Bitset.find index v with
            | Some b ->
                Dataflow.mem_output res i b
                && (sets.Tcfg.is_kernel.(i)
                   || not (Dataflow.mem_input res i b))
            | None -> false)
          d)
      def
  in
  { last; words = Dataflow.stored_words res }

let is_last_write t n v = Varset.mem v t.last.(n)
