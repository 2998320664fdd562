(** Fault injection for the Table II experiment.

    The paper removes the [private]/[reduction] clauses from the directive
    programs and configures the compiler to disable automatic privatization
    and reduction recognition, then checks which of the resulting race
    conditions kernel verification catches. *)

open Minic.Ast

(** Strip every [private], [firstprivate] and [reduction] clause. *)
let strip_parallelism_clauses prog =
  map_program
    (fun s ->
      match s.skind with
      | Sacc (d, body) ->
          let clauses =
            List.filter
              (function
                | Cprivate _ | Cfirstprivate _ | Creduction _ -> false
                | _ -> true)
              d.clauses
          in
          { s with skind = Sacc ({ d with clauses }, body) }
      | _ -> s)
    prog

type census = {
  kernels : int;
  with_private : int;  (** Table II: kernels containing private data *)
  with_reduction : int;  (** Table II: kernels containing reduction *)
  active_errors : int;  (** kernels whose race corrupts outputs *)
  latent_errors : int;  (** raced kernels whose outputs stay correct *)
  active_detected : int;  (** active errors kernel verification caught *)
  latent_detected : int;  (** latent errors it caught (expected: 0) *)
}

let empty =
  { kernels = 0; with_private = 0; with_reduction = 0; active_errors = 0;
    latent_errors = 0; active_detected = 0; latent_detected = 0 }

let add a b =
  { kernels = a.kernels + b.kernels;
    with_private = a.with_private + b.with_private;
    with_reduction = a.with_reduction + b.with_reduction;
    active_errors = a.active_errors + b.active_errors;
    latent_errors = a.latent_errors + b.latent_errors;
    active_detected = a.active_detected + b.active_detected;
    latent_detected = a.latent_detected + b.latent_detected }

(** Run the Table II experiment on one program: strip clauses, disable
    recognition, verify all kernels, and classify the injected races. *)
let census_of_program ?config prog =
  let stripped = strip_parallelism_clauses prog in
  let opts = Codegen.Options.fault_injection in
  (* Census (private/reduction kernels) comes from the *normal* compile. *)
  let tp_normal = Compiler.compile_program prog in
  let tp_faulty = Compiler.compile_program ~opts stripped in
  let v = Kernel_verify.verify_tprog ?config tp_faulty in
  let detected =
    List.filter_map
      (fun r ->
        if Kernel_verify.kernel_ok r then None
        else Some r.Kernel_verify.kr_kernel.Codegen.Tprog.k_name)
      v.Kernel_verify.reports
  in
  let c = ref empty in
  Array.iteri
    (fun i k ->
      let faulty = tp_faulty.Codegen.Tprog.kernels.(i) in
      let raced = Codegen.Tprog.raced_scalars faulty in
      let has_active =
        List.exists (fun (_, kind) -> kind = Codegen.Tprog.Race_active) raced
      in
      let has_latent =
        List.exists (fun (_, kind) -> kind = Codegen.Tprog.Race_latent) raced
      in
      let was_detected = List.mem faulty.Codegen.Tprog.k_name detected in
      c :=
        add !c
          { kernels = 1;
            with_private =
              (if k.Codegen.Tprog.k_has_private_data then 1 else 0);
            with_reduction =
              (if k.Codegen.Tprog.k_has_reduction then 1 else 0);
            active_errors = (if has_active then 1 else 0);
            latent_errors = (if has_latent && not has_active then 1 else 0);
            active_detected = (if has_active && was_detected then 1 else 0);
            latent_detected =
              (if has_latent && (not has_active) && was_detected then 1
               else 0) })
    tp_normal.Codegen.Tprog.kernels;
  !c
