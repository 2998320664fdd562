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

type frame = (string, binding) Hashtbl.t

type t = { globals : frame; mutable frames : frame list }

let create () = { globals = Hashtbl.create 16; frames = [ Hashtbl.create 16 ] }

(* A small pool of recycled scope frames.  [push]/[pop] pairs run once per
   executed scope — loop iterations included — so they sit on the
   interpreter's hottest path; reusing the hashtables avoids an allocation
   per scope.  A pooled frame is [Hashtbl.reset] before reuse, which
   restores its initial size-8 geometry, so it is observably identical to a
   fresh [Hashtbl.create 8].  Frames popped by [pop] are never retained by
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
  | [] -> Hashtbl.create 8

let release_frame f =
  if !frame_pool_len < frame_pool_max then begin
    Hashtbl.reset f;
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
  | frame :: _ -> Hashtbl.replace frame name binding
  | [] -> invalid_arg "Value.declare"

let declare_global env name binding = Hashtbl.replace env.globals name binding

let lookup env name =
  let rec go = function
    | [] -> Hashtbl.find_opt env.globals name
    | frame :: rest -> (
        match Hashtbl.find_opt frame name with
        | Some b -> Some b
        | None -> go rest)
  in
  go env.frames

let lookup_exn env name =
  match lookup env name with
  | Some b -> b
  | None -> error "unbound variable '%s'" name

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
let set_scalar env name v = (scalar_cell env name).v <- v

(** Shape of an array binding ([[|len|]] when it was never given one). *)
let shape_of slot =
  match (slot.shape, slot.buf) with
  | [||], Some b -> [| Gpusim.Buf.length b |]
  | shape, _ -> shape

(* A frame-by-frame copy of [env] with every binding passed through [f]. *)
let map_bindings f env =
  let map_frame fr =
    let fr' = Hashtbl.create (Hashtbl.length fr) in
    Hashtbl.iter (fun name b -> Hashtbl.replace fr' name (f name b)) fr;
    fr'
  in
  { globals = map_frame env.globals; frames = List.map map_frame env.frames }

(** Deep snapshot of all array contents reachable by root name, plus scalar
    values; used by kernel verification to checkpoint the reference state. *)
let snapshot_arrays env names =
  List.filter_map
    (fun name ->
      match lookup env name with
      | Some (Array { buf = Some b; _ }) -> Some (name, Gpusim.Buf.copy b)
      | _ -> None)
    names
