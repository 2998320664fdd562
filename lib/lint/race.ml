(** Loop-carried race / privatization detector.

    Scalar races come straight from the outliner's classification
    ({!Codegen.Tprog.scalar_class}): a kernel scalar is [Sc_raced] exactly
    when clauses and automatic recognition both fail to cover it — the same
    condition under which the simulated GPU manifests the race (§IV-B).
    Array conflicts are found by classifying every subscript of a parallel
    kernel loop against the loop's induction variable. *)

open Minic.Ast
open Codegen.Tprog
module Varset = Analysis.Varset

(* The affine subscript machinery (per-dimension classification against
   the parallel induction variable, cross-iteration shift solving, access
   walk) lives in {!Analysis.Affine}, shared with the symbolic
   equivalence tier. *)
open Analysis.Affine

(* ----------------------- explicit clause facts ---------------------- *)

(* The program's directives by carrying sid, each list in pre-order. *)
let directives_by_sid tp =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (sid, _, d) -> Hashtbl.add tbl sid d)
    (List.rev (Acc.Query.directives_of tp.source));
  tbl

(* Clauses visible to a kernel: the compute-region directive (found by the
   kernel's anchoring sid) plus every loop directive inside its source
   statement. *)
let kernel_directives by_sid (k : kernel) =
  let inner = ref [] in
  iter_stmt
    (fun s ->
      match s.skind with Sacc (d, _) -> inner := d :: !inner | _ -> ())
    k.k_source;
  Hashtbl.find_all by_sid k.k_sid @ List.rev !inner

(* Explicitly private variables and reductions of a kernel. *)
let explicit_facts by_sid k =
  let dirs = kernel_directives by_sid k in
  ( Varset.of_list (List.concat_map Acc.Query.private_vars dirs),
    List.concat_map Acc.Query.reductions dirs )

(* ----------------------------- scalars ------------------------------ *)

let scalar_diags (explicit_private, explicit_reduction) region (k : kernel) =
  let diag_of_scalar (v, cls) =
    match cls with
    | Sc_raced kind -> (
        let manifest =
          match kind with
          | Race_active -> "an active race (corrupts kernel outputs)"
          | Race_latent ->
              "a latent race (hidden by backend register promotion)"
        in
        match List.assoc_opt v region.Analysis.Regions.accumulators with
        | Some op ->
            Some
              (Diag.mk ~var:v
                 ~fixit:(Diag.Fix_add_reduction { sid = k.k_sid; op; var = v })
                 ~code:"ACC-RACE-002" ~severity:Diag.Error ~loc:k.k_loc
                 (Fmt.str
                    "accumulator '%s' in kernel '%s' needs a \
                     'reduction(%s:%s)' clause: every iteration reads and \
                     updates the shared copy, %s"
                    v k.k_name (Minic.Pretty.redop_str op) v manifest))
        | None -> (
            match
              Hashtbl.find_opt region.Analysis.Regions.first_access v
            with
            | Some Analysis.Regions.First_write ->
                Some
                  (Diag.mk ~var:v
                     ~fixit:(Diag.Fix_add_private { sid = k.k_sid; var = v })
                     ~code:"ACC-RACE-001" ~severity:Diag.Error ~loc:k.k_loc
                     (Fmt.str
                        "scalar '%s' in kernel '%s' needs a 'private' \
                         clause: it is written before being read in every \
                         iteration, but all threads share one copy — %s"
                        v k.k_name manifest))
            | _ ->
                Some
                  (Diag.mk ~var:v ~code:"ACC-RACE-005" ~severity:Diag.Error
                     ~loc:k.k_loc
                     (Fmt.str
                        "scalar '%s' in kernel '%s' carries a loop-carried \
                         dependence (read of a value written by another \
                         iteration) — %s"
                        v k.k_name manifest))))
    | Sc_private when not (Varset.mem v explicit_private) ->
        Some
          (Diag.mk ~var:v
             ~fixit:(Diag.Fix_add_private { sid = k.k_sid; var = v })
             ~code:"ACC-RACE-010" ~severity:Diag.Info ~loc:k.k_loc
             (Fmt.str
                "scalar '%s' in kernel '%s' is privatized only by automatic \
                 recognition; an explicit 'private(%s)' clause makes the \
                 program portable to compilers without it"
                v k.k_name v))
    | Sc_reduction op
      when not (List.exists (fun (o, rv) -> o = op && rv = v)
                  explicit_reduction) ->
        Some
          (Diag.mk ~var:v
             ~fixit:(Diag.Fix_add_reduction { sid = k.k_sid; op; var = v })
             ~code:"ACC-RACE-011" ~severity:Diag.Info ~loc:k.k_loc
             (Fmt.str
                "reduction on '%s' in kernel '%s' is recognized only \
                 automatically; an explicit 'reduction(%s:%s)' clause makes \
                 the program portable to compilers without it"
                v k.k_name (Minic.Pretty.redop_str op) v))
    | Sc_private | Sc_firstprivate | Sc_reduction _ -> None
  in
  List.filter_map diag_of_scalar k.k_scalars

(* ------------------------------ arrays ------------------------------ *)

(* Names whose value changes from parallel iteration to parallel iteration:
   the induction variables and every scalar the body writes. *)
let varying_names (k : kernel) region =
  Varset.union k.k_induction
    (Varset.union region.Analysis.Regions.scalars_written
       region.Analysis.Regions.declared)

(* An array the kernel declares itself is one per thread, as a
   private one is: only arrays that designate a root the kernel takes
   from the host are shared between iterations. *)
let array_diags alias (explicit_private, _) region (k : kernel) =
  match k.k_loop with
  | None -> []
  | Some _ when k.k_seq -> []
  | Some loop ->
      let iv = loop.kl_var in
      let varying = varying_names k region in
      let transferred = kernel_arrays k in
      let shared { a_arr = v; _ } =
        not
          (Varset.mem v explicit_private
          || Varset.disjoint (Analysis.Alias.resolve alias v) transferred)
      in
      let accesses = List.filter shared (accesses_of_block k.k_body) in
      let classified =
        List.map (fun a -> (a, classify_access ~iv ~varying a.a_subs)) accesses
      in
      let by_array = Hashtbl.create 8 in
      List.iter
        (fun ((a, _) as e) ->
          let prev =
            Option.value (Hashtbl.find_opt by_array a.a_arr) ~default:[]
          in
          Hashtbl.replace by_array a.a_arr (e :: prev))
        classified;
      let diags = ref [] in
      let emit d = diags := d :: !diags in
      let arrays = List.sort_uniq compare (List.map (fun a -> a.a_arr) accesses) in
      List.iter
        (fun arr ->
          let entries = List.rev (Hashtbl.find by_array arr) in
          let writes = List.filter (fun (a, _) -> a.a_write) entries in
          let reads = List.filter (fun (a, _) -> not a.a_write) entries in
          let affines entries =
            List.sort_uniq compare
              (List.filter_map
                 (function _, Affine a -> Some a | _ -> None)
                 entries)
          in
          let write_affines = affines writes in
          (* Write-write: an iteration-invariant write hits the same element
             from every iteration; two induction-affine writes that admit a
             nonzero iteration shift overlap between iterations. *)
          (if List.exists (fun (_, c) -> c = Invariant) writes then
             emit
               (Diag.mk ~var:arr ~code:"ACC-RACE-003" ~severity:Diag.Warning
                  ~loc:k.k_loc
                  (Fmt.str
                     "array '%s' in kernel '%s': every iteration of the \
                      parallel loop writes the same element (no subscript \
                      depends on '%s') — cross-iteration write-write \
                      conflict"
                     arr k.k_name iv))
           else if
             List.exists
               (fun w ->
                 List.exists
                   (fun w' -> w <> w' && conflicting w w')
                   write_affines)
               write_affines
           then
             emit
               (Diag.mk ~var:arr ~code:"ACC-RACE-003" ~severity:Diag.Warning
                  ~loc:k.k_loc
                  (Fmt.str
                     "array '%s' in kernel '%s' is written at overlapping \
                      elements by different iterations of the parallel loop \
                      (write-write conflict)"
                     arr k.k_name)));
          (* Read-write: a read that a nonzero iteration shift aligns with a
             write ([a[i - 1]] vs [a[i]]).  Reads whose subscripts no shift
             can align with the written ones (a fixed pivot element, the
             other plane of a double buffer, the previous anti-diagonal of a
             wavefront) are left alone. *)
          let rw_conflict =
            List.exists
              (fun w ->
                List.exists
                  (fun (_, rc) ->
                    match rc with
                    | Affine r -> conflicting w r
                    | Invariant | Opaque -> false)
                  reads)
              write_affines
          in
          if rw_conflict then
            emit
              (Diag.mk ~var:arr ~code:"ACC-RACE-004" ~severity:Diag.Warning
                 ~loc:k.k_loc
                 (Fmt.str
                    "array '%s' in kernel '%s' is read at elements written \
                     by other iterations of the parallel loop — \
                     cross-iteration read-write dependence"
                    arr k.k_name)))
        arrays;
      List.rev !diags

let analyze (tp : Codegen.Tprog.t) =
  let by_sid = directives_by_sid tp in
  Array.to_list tp.kernels
  |> List.concat_map (fun k ->
         let facts = explicit_facts by_sid k in
         let region = Analysis.Regions.analyze ~alias:tp.alias k.k_body in
         scalar_diags facts region k @ array_diags tp.alias facts region k)
