(** Typed flat buffers shared by the host and the simulated device.

    A Mini-C array variable maps to one buffer; coherence is tracked at this
    whole-buffer granularity, as in the paper (§III-B: "entire array or memory
    region allocated by a malloc call"). *)

type t = Fbuf of float array | Ibuf of int array

let length = function Fbuf a -> Array.length a | Ibuf a -> Array.length a

(** Size in simulated bytes (double = 8, int = 4, as on the paper's testbed). *)
let bytes = function
  | Fbuf a -> 8 * Array.length a
  | Ibuf a -> 4 * Array.length a

let create_float n = Fbuf (Array.make n 0.0)
let create_int n = Ibuf (Array.make n 0)

let copy = function Fbuf a -> Fbuf (Array.copy a) | Ibuf a -> Ibuf (Array.copy a)

(** Copy all of [src] into [dst]; both must have the same shape. *)
let blit ~src ~dst =
  match (src, dst) with
  | Fbuf s, Fbuf d when Array.length s = Array.length d ->
      Array.blit s 0 d 0 (Array.length s)
  | Ibuf s, Ibuf d when Array.length s = Array.length d ->
      Array.blit s 0 d 0 (Array.length s)
  | _ -> invalid_arg "Buf.blit: shape mismatch"

(** Copy the element range [lo, lo+len) of [src] into the same range of
    [dst]. Used for subarray transfers like [update host(a\[0:n\])]. *)
let blit_range ~src ~dst ~lo ~len =
  match (src, dst) with
  | Fbuf s, Fbuf d -> Array.blit s lo d lo len
  | Ibuf s, Ibuf d -> Array.blit s lo d lo len
  | _ -> invalid_arg "Buf.blit_range: shape mismatch"

let get_float b i =
  match b with Fbuf a -> a.(i) | Ibuf a -> float_of_int a.(i)

let get_int b i =
  match b with Ibuf a -> a.(i) | Fbuf a -> int_of_float a.(i)

let set_float b i v =
  match b with Fbuf a -> a.(i) <- v | Ibuf a -> a.(i) <- int_of_float v

let set_int b i v =
  match b with Ibuf a -> a.(i) <- v | Fbuf a -> a.(i) <- float_of_int v

(** Maximum absolute elementwise difference; buffers must share shape. *)
let max_abs_diff b1 b2 =
  match (b1, b2) with
  | Fbuf a, Fbuf b when Array.length a = Array.length b ->
      let m = ref 0.0 in
      Array.iteri (fun i x -> m := Float.max !m (Float.abs (x -. b.(i)))) a;
      !m
  | Ibuf a, Ibuf b when Array.length a = Array.length b ->
      let m = ref 0 in
      Array.iteri (fun i x -> m := max !m (abs (x - b.(i)))) a;
      float_of_int !m
  | _ -> invalid_arg "Buf.max_abs_diff: shape mismatch"

(* The one result-comparison rule (§III-A, with the §III-C bound); see
   [matches] in the interface.  It is inlined into [compare]'s loop, which
   a call through [matches]'s optional arguments would not be. *)
let[@inline] rule min_value bound margin r v =
  (if Float.is_finite r && Float.is_finite v then
     Float.abs r < min_value
     || Float.abs (r -. v) <= margin *. Float.max 1.0 (Float.abs r)
   else r = v || (Float.is_nan r && Float.is_nan v))
  || match bound with Some (lo, hi) -> lo <= v && v <= hi | None -> false

let matches ?(min_value = 0.0) ?bound ~margin ~reference value =
  rule min_value bound margin reference value

(** Elementwise {!matches}: the first five offending indices and the count
    of elements that do not match. *)
let compare ?(min_value = 0.0) ?bound ~margin ~reference other =
  let n = length reference in
  if length other <> n then invalid_arg "Buf.compare: shape mismatch";
  let bad = ref [] and nbad = ref 0 in
  for i = 0 to n - 1 do
    if not (rule min_value bound margin (get_float reference i)
              (get_float other i))
    then begin
      incr nbad;
      if !nbad <= 5 then bad := i :: !bad
    end
  done;
  (List.rev !bad, !nbad)

(** Flip one bit of element [idx] (fault injection: a transient device
    memory error).  Floats are flipped in their IEEE-754 bit pattern. *)
let flip_bit b ~idx ~bit =
  match b with
  | Fbuf a ->
      let bits = Int64.bits_of_float a.(idx) in
      a.(idx) <- Int64.float_of_bits (Int64.logxor bits
                                        (Int64.shift_left 1L (bit land 63)))
  | Ibuf a -> a.(idx) <- a.(idx) lxor (1 lsl (bit land 62))

(* FNV-1a over the element bit patterns. *)
let fnv h x =
  let h = Int64.logxor h x in
  Int64.mul h 0x100000001b3L

(** Order-sensitive checksum of the element range [lo, lo+len) (whole
    buffer by default); used for end-to-end transfer verification. *)
let checksum ?range b =
  let lo, len =
    match range with None -> (0, length b) | Some (lo, len) -> (lo, len)
  in
  let h = ref 0xcbf29ce484222325L in
  (match b with
  | Fbuf a ->
      for i = lo to lo + len - 1 do
        h := fnv !h (Int64.bits_of_float a.(i))
      done
  | Ibuf a ->
      for i = lo to lo + len - 1 do
        h := fnv !h (Int64.of_int a.(i))
      done);
  !h

let equal b1 b2 =
  match (b1, b2) with
  | Fbuf a, Fbuf b ->
      let same x y =
        Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
      in
      Array.length a = Array.length b && Array.for_all2 same a b
  | Ibuf a, Ibuf b -> a = b
  | (Fbuf _ | Ibuf _), _ -> false

(* Last-writer merge for sharded kernels: an element a shard wrote differs
   from the pre-launch snapshot; fold exactly those into the merge target.
   Bitwise float comparison, so NaNs and signed zeros merge faithfully. *)
let merge_diff ~reference ~src ~dst =
  match (reference, src, dst) with
  | Fbuf r, Fbuf s, Fbuf d ->
      if Array.length r <> Array.length s || Array.length s <> Array.length d
      then invalid_arg "Buf.merge_diff: shape mismatch";
      for i = 0 to Array.length s - 1 do
        if Int64.bits_of_float s.(i) <> Int64.bits_of_float r.(i) then
          d.(i) <- s.(i)
      done
  | Ibuf r, Ibuf s, Ibuf d ->
      if Array.length r <> Array.length s || Array.length s <> Array.length d
      then invalid_arg "Buf.merge_diff: shape mismatch";
      for i = 0 to Array.length s - 1 do
        if s.(i) <> r.(i) then d.(i) <- s.(i)
      done
  | (Fbuf _ | Ibuf _), _, _ -> invalid_arg "Buf.merge_diff: shape mismatch"
