(** Runtime values and environments for the Mini-C interpreters.

    Scalars are mutable cells; arrays are {!Gpusim.Buf} buffers held in
    mutable slots so that pointer assignment ([p = a]) rebinds the slot —
    the pointer-swap idiom of BACKPROP/LUD.  Every slot remembers the *root*
    name of the buffer it currently designates, which is the key used for
    device memory and coherence tracking. *)

type scalar = Int of int | Flt of float

let to_float = function Int n -> float_of_int n | Flt f -> f
let to_int = function Int n -> n | Flt f -> int_of_float f
let truthy = function Int n -> n <> 0 | Flt f -> f <> 0.0

type cell = { mutable v : scalar }

type slot = {
  mutable buf : Gpusim.Buf.t option;
  mutable root : string;
  mutable shape : int array;
      (** dimensions, outermost first; [||] until materialized (the buffer
          is stored flattened, row-major) *)
}

type binding = Scalar of cell | Array of slot

exception Runtime_error of string

let error fmt = Fmt.kstr (fun m -> raise (Runtime_error m)) fmt

let () =
  Printexc.register_printer (function
    | Runtime_error m -> Some ("Mini-C runtime error: " ^ m)
    | _ -> None)

(** {1 Environments}: one binding table per environment. *)

(* Every name the environment has seen owns one entry in one chained hash
   table: its global binding and the stack of its scoped bindings,
   innermost first, each tagged with the depth of the scope that made it.
   A lookup hashes the name once, probes one bucket chain and reads the
   top of the stack, at any scope depth.  The bindings of the open scopes
   also form one log, newest first, through which a closing scope unbinds
   exactly what it bound.  The caller's scopes lie below the [floor]
   while a function runs, so a callee sees its own scopes and the
   globals. *)

(* Physically unique stand-in for "no binding", so a hit allocates no
   option. *)
let absent = Scalar { v = Int 0 }

type stack =
  | Nil
  | Bind of {
      depth : int;
      mutable b : binding;
      below : stack;  (** the name's next-outer binding *)
      owner : entry;  (** the name this binds *)
      older : stack;  (** the binding logged before this one *)
    }

and entry = {
  key : string;
  hash : int;  (** [hash key] *)
  mutable global : binding;  (** [absent] when the name has none *)
  mutable locals : stack;
  mutable next : chain;
}

and chain = End | Next of entry

type t = {
  mutable buckets : chain array;  (** a power of two of them *)
  mutable size : int;  (** number of entries *)
  mutable depth : int;  (** of the innermost open scope; globals are 0 *)
  mutable floor : int;  (** scopes below it (a caller's) are hidden *)
  mutable log : stack;  (** the open scopes' bindings, newest first *)
}

let hash name =
  let h = ref 0 in
  for i = 0 to String.length name - 1 do
    h := (!h * 31) + Char.code (String.unsafe_get name i)
  done;
  !h land max_int

let create_sized n =
  { buckets = Array.make n End; size = 0; depth = 1; floor = 1; log = Nil }

(* Depth 1 is the outermost scope ([main]'s body, a kernel's base). *)
let create () = create_sized 8

let resize env =
  let n = 2 * Array.length env.buckets in
  let buckets = Array.make n End in
  let rec move = function
    | End -> ()
    | Next e as link ->
        let rest = e.next in
        let i = e.hash land (n - 1) in
        e.next <- buckets.(i);
        buckets.(i) <- link;
        move rest
  in
  Array.iter move env.buckets;
  env.buckets <- buckets

let add env name h =
  let i = h land (Array.length env.buckets - 1) in
  let e =
    { key = name; hash = h; global = absent; locals = Nil;
      next = env.buckets.(i) }
  in
  env.buckets.(i) <- Next e;
  env.size <- env.size + 1;
  if env.size > Array.length env.buckets then resize env;
  e

(* The entry of [name], made on first use. *)
let rec intern_in env name h = function
  | End -> add env name h
  | Next e ->
      if e.hash = h && String.equal e.key name then e
      else intern_in env name h e.next

let intern env name =
  let h = hash name in
  intern_in env name h env.buckets.(h land (Array.length env.buckets - 1))

(* Unbind every binding the innermost scope logged, then close it. *)
let close env =
  let d = env.depth in
  let rec unwind = function
    | Bind l when l.depth = d ->
        l.owner.locals <- l.below;
        unwind l.older
    | rest -> env.log <- rest
  in
  unwind env.log;
  env.depth <- d - 1

(** Run [f] in a fresh scope. *)
let scoped env f =
  env.depth <- env.depth + 1;
  match f () with
  | v ->
      close env;
      v
  | exception e ->
      close env;
      raise e

let declare env name binding =
  let e = intern env name in
  match e.locals with
  | Bind l when l.depth = env.depth -> l.b <- binding
  | below ->
      let s =
        Bind { depth = env.depth; b = binding; below; owner = e;
               older = env.log }
      in
      e.locals <- s;
      env.log <- s

let declare_global env name binding = (intern env name).global <- binding

(* A function body's scope, with the floor raised to it. *)
let call env params f =
  let floor = env.floor in
  env.floor <- env.depth + 1;
  let body () =
    List.iter (fun (name, b) -> declare env name b) params;
    f ()
  in
  match scoped env body with
  | v ->
      env.floor <- floor;
      v
  | exception e ->
      env.floor <- floor;
      raise e

(* The visible binding of an entry: its innermost scoped binding unless
   that lies below the floor, else its global. *)
let visible env e =
  match e.locals with
  | Bind l when l.depth >= env.floor -> l.b
  | Bind _ | Nil -> e.global

let rec find_chain env name h = function
  | End -> absent
  | Next e ->
      if e.hash = h && String.equal e.key name then visible env e
      else find_chain env name h e.next

(* The visible binding of [name], or [absent]. *)
let find env name =
  let h = hash name in
  find_chain env name h
    (Array.unsafe_get env.buckets (h land (Array.length env.buckets - 1)))

let lookup env name =
  let b = find env name in
  if b == absent then None else Some b

let lookup_exn env name =
  let b = find env name in
  if b == absent then error "unbound variable '%s'" name else b

let scalar_cell env name =
  match lookup_exn env name with
  | Scalar c -> c
  | Array _ -> error "'%s' used as a scalar but holds an array" name

let array_slot env name =
  match lookup_exn env name with
  | Array s -> s
  | Scalar _ -> error "'%s' used as an array but holds a scalar" name

let array_buf env name =
  match (array_slot env name).buf with
  | Some b -> b
  | None -> error "array '%s' is not materialized" name

(** Root name of the buffer currently designated by array/pointer [name]. *)
let root_of env name = (array_slot env name).root

let get_scalar env name = (scalar_cell env name).v

(** Shape of an array binding ([[|len|]] when it was never given one). *)
let shape_of slot =
  match (slot.shape, slot.buf) with
  | [||], Some b -> [| Gpusim.Buf.length b |]
  | shape, _ -> shape

(* A copy of what [env] shows: each name's global and visible scoped
   binding, passed through [f], the scoped one in the copy's outermost
   scope.  The copy has its own table, so neither side sees the other's
   later declarations. *)
let map_bindings f env =
  let env' = create_sized (Array.length env.buckets) in
  let copy e =
    let global = if e.global == absent then absent else f e.key e.global in
    let local =
      match e.locals with
      | Bind l when l.depth >= env.floor -> f e.key l.b
      | Bind _ | Nil -> absent
    in
    if global != absent || local != absent then begin
      let e' = add env' e.key e.hash in
      e'.global <- global;
      if local != absent then
        e'.locals <-
          Bind { depth = 1; b = local; below = Nil; owner = e'; older = Nil }
    end
  in
  let rec each = function
    | End -> ()
    | Next e ->
        copy e;
        each e.next
  in
  Array.iter each env.buckets;
  env'

(** {1 Result comparison} *)

type mismatch = {
  m_what : string;
  m_count : int;
  m_max_diff : float;
  m_first_indices : int list;
}

type outputs = (string * binding option) list

let outputs env names = List.map (fun name -> (name, lookup env name)) names

let compare_outputs ~margin ~reference got =
  List.filter_map
    (fun (name, r) ->
      let differ m_count m_max_diff m_first_indices =
        Some { m_what = name; m_count; m_max_diff; m_first_indices }
      in
      match (r, Option.join (List.assoc_opt name got)) with
      | Some (Array { buf = Some rb; _ }), Some (Array { buf = Some gb; _ })
        when Gpusim.Buf.length rb = Gpusim.Buf.length gb ->
          let first, count = Gpusim.Buf.compare ~margin ~reference:rb gb in
          if count = 0 then None
          else differ count (Gpusim.Buf.max_abs_diff rb gb) first
      | Some (Scalar c1), Some (Scalar c2) ->
          let x = to_float c1.v and y = to_float c2.v in
          if Gpusim.Buf.matches ~margin ~reference:x y then None
          else differ 1 (Float.abs (x -. y)) []
      | _ -> differ 1 Float.nan [])
    reference
