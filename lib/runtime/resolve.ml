(** Compile-time variable resolution for the closure-compilation engine.

    A resolver mirrors the lexical scope structure of one activation (a
    function body, the [main] body, or a kernel) and assigns every declared
    variable a [(depth, slot)] index: [depth] is the lexical scope depth at
    the declaration and [slot] is an index into the activation's flat
    register array.  Slots are *not* reused across sibling scopes — [next]
    only grows — so a stale register can never be observed under a slot
    that a sibling scope also uses; reading a register whose declaration
    has not executed yet surfaces as the same "unbound variable" error the
    tree-walker raises.  Names that resolve to no scope are {e free}
    (globals, or names materialized at run time by a hook) and fall back to
    the environment lookup path. *)

type binding = { depth : int; slot : int }

type resolution = Local of binding | Free of string

type t = {
  mutable scopes : (string, binding) Hashtbl.t list;
  mutable next : int;  (** next fresh register index *)
  mutable size : int;  (** high-water mark: required register-array size *)
}

let create () = { scopes = [ Hashtbl.create 8 ]; next = 0; size = 0 }

let enter t = t.scopes <- Hashtbl.create 8 :: t.scopes

let leave t =
  match t.scopes with
  | _ :: rest -> t.scopes <- rest
  | [] -> invalid_arg "Resolve.leave: no open scope"

(** Run [f] inside a child scope. *)
let scoped t f =
  enter t;
  Fun.protect ~finally:(fun () -> leave t) f

(** Declare [name] in the innermost scope; returns its register slot.
    Redeclaring a name in the same scope shadows it with a fresh slot,
    matching the tree walker, where it replaces the name's binding in
    that scope. *)
let declare t name =
  match t.scopes with
  | scope :: _ ->
      let slot = t.next in
      t.next <- slot + 1;
      if t.next > t.size then t.size <- t.next;
      Hashtbl.replace scope name { depth = List.length t.scopes - 1; slot };
      slot
  | [] -> invalid_arg "Resolve.declare: no open scope"

let resolve t name =
  let rec go = function
    | [] -> Free name
    | scope :: rest -> (
        match Hashtbl.find_opt scope name with
        | Some b -> Local b
        | None -> go rest)
  in
  go t.scopes

(** Register slot for [name] if it is locally bound. *)
let slot_of t name =
  match resolve t name with Local b -> Some b.slot | Free _ -> None

let frame_size t = t.size
