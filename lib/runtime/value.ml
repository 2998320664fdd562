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

(** {1 Environments}: a stack of frames over a global frame. *)

(* A frame is a chained hash table from names to bindings whose entries
   keep their key's hash, so a lookup hashes the name once for the whole
   frame stack, probes each frame with that hash, and compares keys with
   [String.equal] only on a hash match; a resize re-buckets entries by
   their stored hash. *)
module Frame = struct
  type bucket =
    | Empty
    | Cons of {
        key : string;
        hash : int;  (** [hash key] *)
        mutable data : binding;
        next : bucket;
      }

  type t = {
    mutable size : int;  (** number of bindings *)
    mutable buckets : bucket array;  (** a power of two of them *)
    initial : int;  (** the bucket count [reset] restores *)
  }

  let hash name =
    let h = ref 0 in
    for i = 0 to String.length name - 1 do
      h := (!h * 31) + Char.code (String.unsafe_get name i)
    done;
    !h land max_int

  let create n =
    let rec pow2 k = if k >= n then k else pow2 (2 * k) in
    let initial = pow2 1 in
    { size = 0; buckets = Array.make initial Empty; initial }

  let length fr = fr.size

  let reset fr =
    if fr.size > 0 then begin
      fr.size <- 0;
      if Array.length fr.buckets = fr.initial then
        Array.fill fr.buckets 0 fr.initial Empty
      else fr.buckets <- Array.make fr.initial Empty
    end

  (* Physically unique stand-in for "no binding", so a hit allocates no
     option. *)
  let absent = Scalar { v = Int 0 }

  let rec find_bucket name h = function
    | Empty -> absent
    | Cons c ->
        if c.hash = h && String.equal c.key name then c.data
        else find_bucket name h c.next

  let find_hashed fr name h =
    if fr.size = 0 then absent
    else
      find_bucket name h
        (Array.unsafe_get fr.buckets (h land (Array.length fr.buckets - 1)))

  let find_opt fr name =
    let b = find_hashed fr name (hash name) in
    if b == absent then None else Some b

  let resize fr =
    let old = fr.buckets in
    let n = 2 * Array.length old in
    let buckets = Array.make n Empty in
    let rec move = function
      | Empty -> ()
      | Cons c ->
          let i = c.hash land (n - 1) in
          buckets.(i) <-
            Cons { key = c.key; hash = c.hash; data = c.data;
                   next = buckets.(i) };
          move c.next
    in
    Array.iter move old;
    fr.buckets <- buckets

  let rec set_bucket name h binding = function
    | Empty -> false
    | Cons c ->
        if c.hash = h && String.equal c.key name then begin
          c.data <- binding;
          true
        end
        else set_bucket name h binding c.next

  let replace fr name binding =
    let h = hash name in
    let i = h land (Array.length fr.buckets - 1) in
    if not (set_bucket name h binding fr.buckets.(i)) then begin
      fr.buckets.(i) <-
        Cons { key = name; hash = h; data = binding; next = fr.buckets.(i) };
      fr.size <- fr.size + 1;
      if fr.size > 2 * Array.length fr.buckets then resize fr
    end

  let iter f fr =
    let rec go = function
      | Empty -> ()
      | Cons c ->
          f c.key c.data;
          go c.next
    in
    Array.iter go fr.buckets
end

type frame = Frame.t

type t = { globals : frame; mutable frames : frame list }

let create () = { globals = Frame.create 16; frames = [ Frame.create 16 ] }

(* A small pool of recycled scope frames.  [push]/[pop] pairs run once per
   executed scope — loop iterations included — so they sit on the
   interpreter's hottest path; reusing the frames avoids an allocation per
   scope.  A pooled frame is [Frame.reset] before reuse, which empties it
   and restores its initial geometry, so it is observably identical to a
   fresh [Frame.create 8].  Frames popped by [pop] are never retained by
   callers (scopes hand values out through shared cells), which is what
   makes recycling safe. *)
let frame_pool : frame list ref = ref []
let frame_pool_len = ref 0
let frame_pool_max = 64

let acquire_frame () =
  match !frame_pool with
  | f :: rest ->
      frame_pool := rest;
      decr frame_pool_len;
      f
  | [] -> Frame.create 8

let release_frame f =
  if !frame_pool_len < frame_pool_max then begin
    Frame.reset f;
    frame_pool := f :: !frame_pool;
    incr frame_pool_len
  end

let push env = env.frames <- acquire_frame () :: env.frames

let pop env =
  match env.frames with
  | f :: rest ->
      env.frames <- rest;
      release_frame f
  | [] -> invalid_arg "Value.pop: empty frame stack"

(** Run [f] in a fresh scope. *)
let scoped env f =
  push env;
  Fun.protect ~finally:(fun () -> pop env) f

let declare env name binding =
  match env.frames with
  | frame :: _ -> Frame.replace frame name binding
  | [] -> invalid_arg "Value.declare"

let declare_global env name binding = Frame.replace env.globals name binding

(* The innermost binding of [name], or [Frame.absent]: the name is hashed
   once for the whole stack. *)
let find env name =
  let h = Frame.hash name in
  let rec go = function
    | [] -> Frame.find_hashed env.globals name h
    | frame :: rest ->
        let b = Frame.find_hashed frame name h in
        if b == Frame.absent then go rest else b
  in
  go env.frames

let lookup env name =
  let b = find env name in
  if b == Frame.absent then None else Some b

let lookup_exn env name =
  let b = find env name in
  if b == Frame.absent then error "unbound variable '%s'" name else b

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

(* A frame-by-frame copy of [env] with every binding passed through [f]. *)
let map_bindings f env =
  let map_frame fr =
    let fr' = Frame.create (Frame.length fr) in
    Frame.iter (fun name b -> Frame.replace fr' name (f name b)) fr;
    fr'
  in
  { globals = map_frame env.globals; frames = List.map map_frame env.frames }

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
