(** Seeded input generation for the benchmark: a self-contained PRNG (so
    inputs do not depend on the OCaml runtime's [Random] algorithm or on
    the simulator's own generator), seeded shuffles, and the
    [compile-large] program generator.

    A generated program is a sequence of independent kernel-pair blocks
    at [n = 16], each instantiated from a template modelled on a suite
    kernel with a planted data-movement pitfall.  Blocks share no
    variables, so the lint signature of a program is the sum of its
    blocks' signatures — the oracle the benchmark checks [Lint] against. *)

(* Full-period linear congruential generator modulo 2^63 (OCaml's native
   int wraps there; multiplier = 5 mod 8, odd increment); the high bits
   are used. *)
type rng = { mutable s : int }

let rng seed = { s = (seed * 2685821657736338717) lxor 0x5DEECE66D }

let next r =
  r.s <- (r.s * 3935559000370003845) + 1442695040888963407;
  (r.s lsr 20) land 0x3FFFFFFF

let int r bound = next r mod bound

(** Fisher-Yates shuffle of [l] driven by [r]. *)
let shuffle r l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let j = int r (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  Array.to_list a

type template = {
  body : string;  (** block source; [@] stands for the block index *)
  vars : string list;  (** designated outputs, [@]-suffixed *)
  signature : (string * int) list;  (** lint diagnostics one block plants *)
}

(* JACOBI's sweep with the in-loop [update host] of Listing 3: the
   update and the default-scheme copies around both kernels are
   redundant on every iteration. *)
let jacobi =
  { body =
      {|  float a@[n];
  float b@[n];
  for (int i = 0; i < n; i++) {
    a@[i] = float((i + @) % 13) * 0.25 + 1.0;
    b@[i] = 0.0;
  }
  for (int t = 0; t < iters; t++) {
    #pragma acc kernels loop gang worker
    for (int i = 1; i < n - 1; i++) {
      b@[i] = 0.5 * (a@[i - 1] + a@[i + 1]);
    }
    #pragma acc kernels loop gang worker
    for (int i = 1; i < n - 1; i++) {
      a@[i] = b@[i];
    }
    #pragma acc update host(b@)
  }
|};
    vars = [ "a@"; "b@" ];
    signature = [ ("ACC-XFER-004", 8); ("ACC-XFER-005", 1) ] }

(* EP's private-temporary kernel feeding a sum reduction, with no data
   region: the default scheme copies the intermediate array both ways. *)
let ep =
  { body =
      {|  int sd@[n];
  int q@;
  float acc@ = 0.0;
  #pragma acc kernels loop gang worker private(q@)
  for (int i = 0; i < n; i++) {
    q@ = (i * 2531011 + @) % 65536;
    sd@[i] = (q@ * 1103 + 12345) % 65536;
  }
  #pragma acc kernels loop gang worker reduction(+:acc@)
  for (int i = 0; i < n; i++) {
    acc@ = acc@ + float(sd@[i] % 97) * 0.01;
  }
|};
    vars = [ "sd@"; "acc@" ];
    signature = [ ("ACC-XFER-004", 4) ] }

(* SPMUL-style accumulate inside a data region, with a planted
   [update device] of an array the host never writes. *)
let axpy =
  { body =
      {|  float x@[n];
  float y@[n];
  for (int i = 0; i < n; i++) {
    x@[i] = float((i * 7 + @) % 11) * 0.5;
    y@[i] = 1.0;
  }
  #pragma acc data copyin(x@) copy(y@)
  {
    for (int t = 0; t < iters; t++) {
      #pragma acc update device(x@)
      #pragma acc kernels loop gang worker
      for (int i = 0; i < n; i++) {
        y@[i] = y@[i] + 0.5 * x@[i];
      }
      #pragma acc kernels loop gang worker
      for (int i = 0; i < n; i++) {
        y@[i] = y@[i] * 0.75;
      }
    }
  }
|};
    vars = [ "x@"; "y@" ];
    signature = [ ("ACC-XFER-004", 1); ("ACC-XFER-005", 1) ] }

let templates = [| jacobi; ep; axpy |]

type program = {
  source : string;
  blocks : int;
  outputs : string list;
  signature : (string * int) list;  (** code -> count, sorted by code *)
}

let instantiate k s =
  String.concat (string_of_int k) (String.split_on_char '@' s)

let add_signature acc (code, n) =
  let prev = Option.value ~default:0 (List.assoc_opt code acc) in
  (code, prev + n) :: List.remove_assoc code acc

let program ts =
  let blocks = List.mapi (fun k t -> (k, templates.(t))) ts in
  { source =
      "int main() {\n  int n = 16;\n  int iters = 3;\n"
      ^ String.concat "" (List.map (fun (k, t) -> instantiate k t.body) blocks)
      ^ "  return 0;\n}\n";
    blocks = List.length ts;
    outputs =
      List.concat_map (fun (k, t) -> List.map (instantiate k) t.vars) blocks;
    signature =
      List.sort compare
        (List.fold_left
           (fun acc (_, (t : template)) ->
              List.fold_left add_signature acc t.signature)
           [] blocks) }

(** Block counts of one [compile-large] input set: a fixed ladder from 50
    to 300 blocks, so every seed spans the same size range.  The largest
    size appears twice: at ten passes the tail percentile then falls in
    the middle of the largest programs' samples, not on the boundary
    between two sizes. *)
let ladder = [ 50; 90; 130; 170; 210; 300; 300 ]

(** The [compile-large] programs of [seed], in ladder order.  The seed
    decides which block gets which template, from a balanced multiset:
    the passes under test are quadratic in program size, so per-seed
    differences in size or template mix would show as run-to-run spread
    rather than as the code's cost. *)
let programs ~seed =
  let r = rng seed in
  let nt = Array.length templates in
  List.map
    (fun blocks -> program (shuffle r (List.init blocks (fun k -> k mod nt))))
    ladder
