(** Flow-insensitive points-to analysis for Mini-C pointers.

    Mini-C pointers exist to alias arrays (the pointer-swap idiom of
    BACKPROP and LUD).  The analysis computes, for every pointer variable,
    the set of array *roots* it may point to.  When a pointer may alias more
    than one array, the may-dead analysis degrades to may-dead — which is
    precisely how the paper's tool ends up issuing the occasional wrong
    suggestion that kernel verification later catches (§IV-C, Table III). *)

open Minic
open Minic.Ast

module Smap = Map.Make (String)

type t = {
  points_to : Varset.t Smap.t;  (** pointer -> may-point-to array roots *)
  arrays : Varset.t;  (** true array variables (storage roots) *)
}

let is_ptr env fname v =
  match Typecheck.var_type env fname v with
  | Some (Tptr _) -> true
  | Some _ | None -> false

let is_arr env fname v =
  match Typecheck.var_type env fname v with
  | Some (Tarr _) -> true
  | Some _ | None -> false

(** Compute points-to sets for function [fname] of [prog].  Pointer-typed
    parameters are assumed to alias nothing locally (benchmarks pass arrays
    to pure helpers only); pointer-to-pointer copies propagate sets. *)
let compute env prog fname =
  let f =
    match Ast.find_function prog fname with
    | Some f -> f
    | None -> invalid_arg ("Alias.compute: unknown function " ^ fname)
  in
  let arrays = ref Varset.empty in
  Typecheck.Smap.iter
    (fun v _ -> if is_arr env fname v then arrays := Varset.add v !arrays)
    (Typecheck.function_vars env fname);
  (* Collect direct copy edges p <- rhs_root. *)
  let edges = ref [] in
  let record p rhs =
    match rhs with
    | Evar r -> edges := (p, r) :: !edges
    | _ -> ()
  in
  iter_stmts
    (fun s ->
      match s.skind with
      | Sassign (Lvar p, rhs) when is_ptr env fname p -> record p rhs
      | Sdecl (Tptr _, p, Some rhs) -> record p rhs
      | _ -> ())
    f.f_body;
  (* Fixpoint over the copy edges. *)
  let pts = ref Smap.empty in
  let get m v =
    match Smap.find_opt v m with
    | Some s -> s
    | None -> if Varset.mem v !arrays then Varset.singleton v else Varset.empty
  in
  let changed = ref true in
  while !changed do
    changed := false;
    List.iter
      (fun (p, r) ->
        let cur = get !pts p in
        let extra = get !pts r in
        let next = Varset.union cur extra in
        if not (Varset.equal cur next) then begin
          pts := Smap.add p next !pts;
          changed := true
        end)
      !edges
  done;
  { points_to = !pts; arrays = !arrays }

(** Array roots a variable occurrence may denote: the variable itself if it
    is an array, its points-to set if a pointer, empty otherwise. *)
let resolve t v =
  if Varset.mem v t.arrays then Varset.singleton v
  else match Smap.find_opt v t.points_to with
    | Some s -> s
    | None -> Varset.empty

(** A pointer is ambiguous when it may denote several distinct arrays; the
    compiler then cannot prove deadness facts about accesses through it. *)
let is_ambiguous t v = Varset.cardinal (resolve t v) > 1
