(** Coherence-check insertion (§III-B).

    Decorates a translated program with the runtime calls of the paper's
    memory-transfer verification scheme:

    - [check_read]/[check_write] for GPU data at kernel boundaries only;
    - [check_read]/[check_write] for CPU data at first-access points since
      program entry or the latest kernel call;
    - [reset_status] after last host writes whose GPU copy is (may-)dead, and
      after kernel launches whose written arrays are (may-)dead on the CPU;
    - loop hoisting: CPU checks move out of kernel-free loops; GPU checks
      move out of loops that neither touch the array on the host nor
      upload it — the optimization that lets the JACOBI deferred-copy
      redundancy be detected (Listing 3 of the paper).

    [Naive] mode instead instruments every tracked access — the baseline of
    the check-placement ablation. *)

open Analysis
open Tprog

type mode = Optimized | Naive

type loop_info = {
  li_launch : bool;
  li_host : Varset.t;  (** arrays accessed by host code inside the loop *)
  li_h2d : Varset.t;  (** arrays uploaded inside the loop *)
}

(* Per-loop summaries of the tracked arrays, keyed by the loop tstmt's tid.
   A node counts toward every loop enclosing it, and a loop's header nodes
   (condition, init and step) toward the loop they belong to, which every
   loop thereby has an entry for. *)
let loop_infos (cfg : Tcfg.t) (sets : Tcfg.sets) =
  let tbl = Hashtbl.create 32 in
  let add li l =
    match Hashtbl.find_opt tbl l with
    | None -> Hashtbl.replace tbl l li
    | Some cur ->
        Hashtbl.replace tbl l
          { li_launch = cur.li_launch || li.li_launch;
            li_host = Varset.union cur.li_host li.li_host;
            li_h2d = Varset.union cur.li_h2d li.li_h2d }
  in
  for i = 0 to Tcfg.size cfg - 1 do
    let li =
      { li_launch = sets.Tcfg.is_kernel.(i);
        li_host =
          Varset.union sets.Tcfg.host_read.(i) sets.Tcfg.host_write.(i);
        li_h2d = sets.Tcfg.h2d.(i) }
    in
    (match Tcfg.payload cfg i with
    | Tcfg.Ncond _ | Tcfg.Nhost_frag _ -> add li cfg.Tcfg.owner.(i)
    | Tcfg.Nentry | Tcfg.Nexit | Tcfg.Nstmt _ -> ());
    List.iter (add li) cfg.Tcfg.loops_of.(i)
  done;
  tbl

let status_of_deadness = function
  | Deadness.Must_dead -> Some Not_stale
  | Deadness.May_dead -> Some May_stale
  | Deadness.Live -> None

(* The dataflow facts placement reads.  Placement uses the full
   (alias-aware) access sets; deadness uses the compiler's imperfect view
   that cannot see through ambiguous pointers. *)
type facts = {
  cfg : Tcfg.t;
  sets : Tcfg.sets;
  dead : Deadness.t;
  last : Lastwrite.t;
  first : Firstaccess.t;
}

let facts tp =
  let cfg = Tcfg.build tp in
  let sets = Tcfg.access_sets tp cfg in
  let main = Tcfg.main_vars tp in
  { cfg; sets;
    dead = Deadness.compute tp cfg (Tcfg.alias_blind sets) ~main;
    last = Lastwrite.compute tp cfg sets;
    first = Firstaccess.compute tp cfg sets ~main }

let solve_words tp =
  let f = facts tp in
  Deadness.stored_words f.dead + f.last.Lastwrite.words
  + f.first.Firstaccess.words

(** Instrument [tp] with coherence checks. *)
let instrument ?(mode = Optimized) (tp : Tprog.t) =
  let { cfg; sets; dead; last; first } = facts tp in
  let infos = loop_infos cfg sets in

  let pre : (int, check list) Hashtbl.t = Hashtbl.create 64 in
  let post : (int, check list) Hashtbl.t = Hashtbl.create 64 in
  let add tbl tid c =
    let cur = Option.value ~default:[] (Hashtbl.find_opt tbl tid) in
    if not (List.mem c cur) then Hashtbl.replace tbl tid (cur @ [ c ])
  in

  (* Hoist a check anchored at [tid] outward through its enclosing loops
     while [ok loop_tid] holds; returns the final anchor. *)
  let hoist ~loops ~ok tid =
    let rec go anchor = function
      | [] -> anchor
      | l :: rest -> if ok l then go l rest else anchor
    in
    go tid loops
  in
  let cpu_loop_ok l =
    match Hashtbl.find_opt infos l with
    | Some li -> not li.li_launch
    | None -> false
  in
  let gpu_loop_ok v l =
    match Hashtbl.find_opt infos l with
    | Some li ->
        (not (Varset.mem v li.li_host)) && not (Varset.mem v li.li_h2d)
    | None -> false
  in

  for i = 0 to Tcfg.size cfg - 1 do
    let owner = cfg.Tcfg.owner.(i) in
    if owner >= 0 then begin
      let loops = cfg.Tcfg.loops_of.(i) in
      (match Tcfg.payload cfg i with
      | Tcfg.Nstmt { tkind = Tlaunch _; tid; _ } ->
          (* GPU checks at the kernel boundary, hoisted when legal. *)
          Varset.iter
            (fun v ->
              let anchor =
                match mode with
                | Optimized -> hoist ~loops ~ok:(gpu_loop_ok v) tid
                | Naive -> tid
              in
              add pre anchor (Check_read (v, Gpu)))
            sets.Tcfg.kern_read.(i);
          Varset.iter
            (fun v ->
              let anchor =
                match mode with
                | Optimized -> hoist ~loops ~ok:(gpu_loop_ok v) tid
                | Naive -> tid
              in
              add pre anchor (Check_write (v, Gpu)))
            sets.Tcfg.kern_write.(i);
          (* CPU copies of kernel-written arrays that are dead afterwards. *)
          Varset.iter
            (fun v ->
              match status_of_deadness (Deadness.status_after dead.cpu i v) with
              | Some st -> add post tid (Reset_status (v, Cpu, st))
              | None -> ())
            sets.Tcfg.kern_write.(i)
      | _ ->
          (* Host accesses. *)
          let reads, writes =
            match mode with
            | Optimized -> (first.Firstaccess.first_read.(i),
                            first.Firstaccess.first_write.(i))
            | Naive -> (sets.Tcfg.name_read.(i), sets.Tcfg.name_write.(i))
          in
          Varset.iter
            (fun v ->
              let anchor =
                match mode with
                | Optimized -> hoist ~loops ~ok:cpu_loop_ok owner
                | Naive -> owner
              in
              add pre anchor (Check_read (v, Cpu)))
            reads;
          Varset.iter
            (fun v ->
              let anchor =
                match mode with
                | Optimized -> hoist ~loops ~ok:cpu_loop_ok owner
                | Naive -> owner
              in
              add pre anchor (Check_write (v, Cpu)))
            writes;
          (* reset_status after a last host write whose GPU copy is dead. *)
          Varset.iter
            (fun v ->
              if Lastwrite.is_last_write last i v then
                match
                  status_of_deadness (Deadness.status_after dead.gpu i v)
                with
                | Some st -> add post owner (Reset_status (v, Gpu, st))
                | None -> ())
            sets.Tcfg.host_write.(i))
    end
  done;

  (* Checks are numbered above the translation's largest tid. *)
  let last_tid = ref 0 in
  Tprog.iter tp (fun s -> last_tid := max !last_tid s.tid);
  let body =
    Tprog.expand_tstmts
      (fun s ->
        let mk_checks cs =
          List.map
            (fun c ->
              incr last_tid;
              { tid = !last_tid; tkind = Tcheck c; tloc = s.tloc;
                tsid = s.tsid })
            cs
        in
        let pre_cs =
          Option.value ~default:[] (Hashtbl.find_opt pre s.tid) |> mk_checks
        in
        let post_cs =
          Option.value ~default:[] (Hashtbl.find_opt post s.tid) |> mk_checks
        in
        pre_cs @ [ s ] @ post_cs)
      tp.body
  in
  { tp with body; instrumented = true }
