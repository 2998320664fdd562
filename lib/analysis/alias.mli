(** Flow-insensitive points-to analysis for Mini-C pointers (the
    pointer-swap idiom of BACKPROP/LUD).  When a pointer may alias several
    arrays, downstream may-dead facts are weakened — which is how the
    paper's tool ends up issuing its occasional wrong suggestion
    (§IV-C, Table III). *)

type t = {
  points_to : Varset.t Map.Make(String).t;
  arrays : Varset.t;  (** true array variables (storage roots) *)
}

(** Points-to sets for function [fname] of a checked program. *)
val compute : Minic.Typecheck.env -> Minic.Ast.program -> string -> t

(** Array roots a variable occurrence may denote: itself if an array, its
    points-to set if a pointer, empty otherwise. *)
val resolve : t -> string -> Varset.t

(** May the name denote several distinct arrays? *)
val is_ambiguous : t -> string -> bool
