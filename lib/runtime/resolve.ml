(** Compile-time variable resolution for the closure-compilation engine.

    A resolver mirrors the lexical scope structure of one activation (a
    function body, the [main] body, or a kernel) and assigns every declared
    variable a slot: an index into the activation's flat register array.
    Slots are *not* reused across sibling scopes — [next] only grows — so a
    stale register can never be observed under a slot that a sibling scope
    also uses; reading a register whose declaration has not executed yet
    surfaces as the same "unbound variable" error the tree-walker raises.
    Names that resolve to no scope are {e free} (globals, or names
    materialized at run time by a hook) and fall back to the environment
    lookup path.  One table per resolver, as {!Value} keeps one per
    environment: a lookup is one probe whatever the scope depth. *)

type t = {
  slots : (string, int list) Hashtbl.t;
      (** name -> slots of its open declarations, innermost first *)
  mutable scopes : string list list;
      (** the names each open scope declared, innermost scope first *)
  mutable next : int;  (** next fresh register index: the frame size *)
}

let create () = { slots = Hashtbl.create 16; scopes = [ [] ]; next = 0 }

let enter t = t.scopes <- [] :: t.scopes

let leave t =
  match t.scopes with
  | names :: rest ->
      List.iter
        (fun name ->
          match Hashtbl.find t.slots name with
          | _ :: (_ :: _ as outer) -> Hashtbl.replace t.slots name outer
          | _ -> Hashtbl.remove t.slots name)
        names;
      t.scopes <- rest
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
  | names :: rest ->
      let slot = t.next in
      t.next <- slot + 1;
      let outer = Option.value ~default:[] (Hashtbl.find_opt t.slots name) in
      Hashtbl.replace t.slots name (slot :: outer);
      t.scopes <- (name :: names) :: rest;
      slot
  | [] -> invalid_arg "Resolve.declare: no open scope"

(** Register slot for [name] if it is locally bound. *)
let slot_of t name =
  match Hashtbl.find_opt t.slots name with
  | Some (slot :: _) -> Some slot
  | Some [] | None -> None

(** Registers an activation needs: every slot ever handed out. *)
let frame_size t = t.next
