(** Translated-program IR: the output of the OpenARC translation pass.

    A translated program mirrors the host control flow of the input Mini-C
    program, with compute regions outlined into {!kernel}s and OpenACC data
    semantics lowered to explicit device operations: allocation, transfers,
    launches, waits, and (when instrumentation is enabled) coherence runtime
    checks. *)

open Minic
open Analysis

type device = Cpu | Gpu

let device_name = function Cpu -> "CPU" | Gpu -> "GPU"

(** Coherence status of one buffer on one device (§III-B). *)
type status = Not_stale | May_stale | Stale

let status_name = function
  | Not_stale -> "notstale"
  | May_stale -> "maystale"
  | Stale -> "stale"

type xdir = H2D | D2H

(** A static program point that performs a device operation; reports refer to
    sites so the user can trace a message back to the input directive. *)
type site = {
  site_id : int;
  site_label : string;
  site_var : string;
      (** the name its clause gives: the array root, or a pointer to it *)
  site_sid : int;  (** [sid] of the originating source statement *)
  site_loc : Loc.t;
}

type xfer = {
  x_var : string;
  x_dir : xdir;
  x_lo : Ast.expr option;  (** subarray lower bound, whole array if absent *)
  x_len : Ast.expr option;
  x_async : Ast.expr option;
  x_site : site;
}

type check =
  | Check_read of string * device
  | Check_write of string * device
  | Reset_status of string * device * status

(** How an unsynchronized shared scalar misbehaves in the simulated GPU
    (see DESIGN.md): an [Active] race corrupts kernel outputs (each thread
    reads the kernel-entry value); a [Latent] race is hidden by backend
    register promotion and never alters outputs. *)
type raced_kind = Race_active | Race_latent

(** How a scalar of the kernel body is realized on the device. *)
type scalar_class =
  | Sc_private  (** fresh per thread, committed from the last iteration *)
  | Sc_firstprivate
  | Sc_reduction of Ast.redop
  | Sc_raced of raced_kind

type kloop = {
  kl_var : string;
  kl_init : Ast.expr;
  kl_cond : Ast.expr;
  kl_step : Ast.stmt option;
  kl_body : Ast.block;
}

type kernel = {
  k_id : int;
  k_name : string;
  k_sid : int;  (** source compute-directive statement *)
  k_loc : Loc.t;
  k_loop : kloop option;  (** [None]: straight-line body run by one thread *)
  k_body : Ast.block;  (** the region statements (equals [kl_body] if looped) *)
  k_source : Ast.stmt;
      (** the original source statement the kernel was outlined from; kernel
          verification executes it as the sequential reference *)
  k_scalars : (string * scalar_class) list;
  k_arrays_read : Varset.t;  (** resolved array roots *)
  k_arrays_written : Varset.t;
  k_params : Varset.t;  (** read-only scalars passed by value *)
  k_induction : Varset.t;  (** loop induction variables (always private) *)
  k_ops_per_iter : int;
  k_async : Ast.expr option;
  k_dims : Ast.expr option * Ast.expr option * Ast.expr option;
      (** (num_gangs, num_workers, vector_length): requested launch
          dimensions; their product caps the simulator's parallel width *)
  k_has_private_data : bool;  (** Table II: "contains private data" *)
  k_has_reduction : bool;  (** Table II: "contains reduction" *)
  k_seq : bool;
}

type tstmt = {
  tid : int;  (** numbered from 1 per translation *)
  tkind : tkind;
  tloc : Loc.t;
  tsid : int;  (** sid of the source statement this op was generated from *)
}

and tkind =
  | Thost of Ast.stmt  (** plain host statement (no OpenACC inside) *)
  | Tif of Ast.expr * tstmt list * tstmt list
  | Twhile of Ast.expr * tstmt list
  | Tfor of Ast.stmt option * Ast.expr option * Ast.stmt option * tstmt list
  | Tblock of tstmt list
  | Talloc of string * site
  | Tfree of string * site
  | Txfer of xfer
  | Tlaunch of int * Ast.expr option  (** kernel id, async queue *)
  | Twait of Ast.expr option
  | Tcheck of check

type t = {
  source : Ast.program;
  env : Typecheck.env;
  alias : Alias.t;
  kernels : kernel array;
  body : tstmt list;  (** translated body of [main] *)
  tracked : Varset.t;  (** arrays under coherence tracking *)
  instrumented : bool;
}

let kernel t id = t.kernels.(id)

let find_kernel t name =
  let found = ref None in
  Array.iter (fun k -> if k.k_name = name then found := Some k) t.kernels;
  !found

(** Scalars of [k] in class [Sc_raced]. *)
let raced_scalars k =
  List.filter_map
    (function (v, Sc_raced kind) -> Some (v, kind) | _ -> None)
    k.k_scalars

(** All arrays a kernel touches. *)
let kernel_arrays k = Varset.union k.k_arrays_read k.k_arrays_written

(** {1 Kernel-body normalization hooks}

    Static analyses over kernel bodies (the race linter, the symbolic
    equivalence tier) need the iteration space of a kernel loop in a
    normalized form rather than the raw header statements. *)

(* Is [st] the canonical unit-step increment [v = v + 1] of [var]? *)
let unit_step var st =
  match st.Ast.skind with
  | Ast.Sassign (Ast.Lvar v, Ast.Ebinop (Ast.Add, Ast.Evar v', Ast.Eint 1))
  | Ast.Sassign (Ast.Lvar v, Ast.Ebinop (Ast.Add, Ast.Eint 1, Ast.Evar v'))
    ->
      v = var && v' = var
  | _ -> false

(** Normalized bounds of a unit-stride kernel loop: [Some (lo, hi)] with
    [hi] exclusive when the header has the shape [for (v = lo; v < hi;
    v++)] (or [<=], folded into an exclusive bound).  [None] when the
    header is outside this shape — callers must fall back to dynamic
    reasoning. *)
let loop_bounds (l : kloop) =
  let stepped =
    match l.kl_step with Some st -> unit_step l.kl_var st | None -> false
  in
  if not stepped then None
  else
    match l.kl_cond with
    | Ast.Ebinop (Ast.Lt, Ast.Evar v, hi) when v = l.kl_var ->
        Some (l.kl_init, hi)
    | Ast.Ebinop (Ast.Le, Ast.Evar v, hi) when v = l.kl_var ->
        Some (l.kl_init, Ast.Ebinop (Ast.Add, hi, Ast.Eint 1))
    | _ -> None

(** Same normalization for an inner sequential [for] of a kernel body:
    [Some (var, lo, hi)] when the statement is [for (var = lo; var < hi;
    var++)] (declaration or assignment initializer, [<]/[<=] bound, unit
    step). *)
let for_bounds init cond step =
  let var_lo =
    match init with
    | Some { Ast.skind = Ast.Sdecl (_, v, Some lo); _ } -> Some (v, lo)
    | Some { Ast.skind = Ast.Sassign (Ast.Lvar v, lo); _ } -> Some (v, lo)
    | _ -> None
  in
  match var_lo with
  | None -> None
  | Some (v, lo) -> (
      let stepped =
        match step with Some st -> unit_step v st | None -> false
      in
      if not stepped then None
      else
        match cond with
        | Some (Ast.Ebinop (Ast.Lt, Ast.Evar v', hi)) when v' = v ->
            Some (v, lo, hi)
        | Some (Ast.Ebinop (Ast.Le, Ast.Evar v', hi)) when v' = v ->
            Some (v, lo, Ast.Ebinop (Ast.Add, hi, Ast.Eint 1))
        | _ -> None)

(** {1 Traversal} *)

let rec iter_tstmts f stmts = List.iter (iter_tstmt f) stmts

and iter_tstmt f s =
  f s;
  match s.tkind with
  | Thost _ | Talloc _ | Tfree _ | Txfer _ | Tlaunch _ | Twait _ | Tcheck _ ->
      ()
  | Tif (_, b1, b2) -> iter_tstmts f b1; iter_tstmts f b2
  | Twhile (_, b) | Tblock b -> iter_tstmts f b
  | Tfor (_, _, _, b) -> iter_tstmts f b

let iter t f = iter_tstmts f t.body

(** Rebuild the body bottom-up, [f] maps each statement (children already
    rewritten) to a replacement list. *)
let rec expand_tstmts f stmts = List.concat_map (expand_tstmt f) stmts

and expand_tstmt f s =
  let tkind =
    match s.tkind with
    | (Thost _ | Talloc _ | Tfree _ | Txfer _ | Tlaunch _ | Twait _
      | Tcheck _) as k -> k
    | Tif (c, b1, b2) -> Tif (c, expand_tstmts f b1, expand_tstmts f b2)
    | Twhile (c, b) -> Twhile (c, expand_tstmts f b)
    | Tfor (i, c, st, b) -> Tfor (i, c, st, expand_tstmts f b)
    | Tblock b -> Tblock (expand_tstmts f b)
  in
  f { s with tkind }

let count_checks t =
  let n = ref 0 in
  iter t (fun s -> match s.tkind with Tcheck _ -> incr n | _ -> ());
  !n

let xfer_sites t =
  let acc = ref [] in
  iter t (fun s ->
      match s.tkind with Txfer x -> acc := x.x_site :: !acc | _ -> ());
  List.rev !acc
