(** Dense bit vectors over a numbered set of names — the fact domain of
    {!Dataflow}.

    An {!index} numbers the names of a {!Varset} in its (sorted) order: bit
    [i] stands for the [i]-th name.  A vector is an [int array] of
    [Sys.int_size]-bit words; bits past the index's width are always
    clear, so word-wise equality is set equality. *)

type t = int array

type index = { width : int; bits : (string, int) Hashtbl.t }

let index set =
  let bits = Hashtbl.create (max 16 (Varset.cardinal set)) in
  Varset.iter (fun v -> Hashtbl.replace bits v (Hashtbl.length bits)) set;
  { width = Hashtbl.length bits; bits }

let width ix = ix.width
let find ix v = Hashtbl.find_opt ix.bits v

let word_bits = Sys.int_size
let words width = (width + word_bits - 1) / word_bits
let word i = i / word_bits
let mask i = 1 lsl (i mod word_bits)
let create width = Array.make (words width) 0
let add t i = t.(word i) <- t.(word i) lor mask i

let full width =
  let t = Array.make (words width) (-1) in
  let r = width mod word_bits in
  if r > 0 then t.(Array.length t - 1) <- (1 lsl r) - 1;
  t

let of_varset ix set =
  let t = create (width ix) in
  Varset.iter (fun v -> add t (Hashtbl.find ix.bits v)) set;
  t

let of_varsets ix sets =
  let zero = create (width ix) in
  Array.map
    (fun s -> if Varset.is_empty s then zero else of_varset ix s)
    sets
