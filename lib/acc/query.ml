(** Read-only helpers over OpenACC directives and clause lists. *)

open Minic.Ast

(** All data clauses of a directive, flattened to (kind, subarray) pairs. *)
let data_clauses d =
  List.concat_map
    (function
      | Cdata (kind, subs) -> List.map (fun s -> (kind, s)) subs
      | Cprivate _ | Cfirstprivate _ | Creduction _ | Cgang _ | Cworker _
      | Cvector _ | Cnum_gangs _ | Cnum_workers _ | Cvector_length _
      | Casync _ | Cif _ | Ccollapse _ | Cseq | Cindependent | Chost _
      | Cdevice _ | Cuse_device _ -> [])
    d.clauses

(** Variables named in any data clause of [d]. *)
let data_vars d = List.map (fun (_, s) -> s.sub_var) (data_clauses d)

let private_vars d =
  List.concat_map
    (function Cprivate vs -> vs | _ -> [])
    d.clauses

let firstprivate_vars d =
  List.concat_map (function Cfirstprivate vs -> vs | _ -> []) d.clauses

(** Reduction specs [(op, var)] declared on [d]. *)
let reductions d =
  List.concat_map
    (function
      | Creduction (op, vs) -> List.map (fun v -> (op, v)) vs
      | _ -> [])
    d.clauses

(** [Some None] for bare [async], [Some (Some e)] for [async(e)], [None] if
    the clause is absent. *)
let async d =
  List.find_map (function Casync e -> Some e | _ -> None) d.clauses

let if_clause d =
  List.find_map (function Cif e -> Some e | _ -> None) d.clauses

let has_seq d = List.exists (function Cseq -> true | _ -> false) d.clauses

let collapse d =
  List.find_map (function Ccollapse n -> Some n | _ -> None) d.clauses

let update_host_subs d =
  List.concat_map (function Chost subs -> subs | _ -> []) d.clauses

let update_device_subs d =
  List.concat_map (function Cdevice subs -> subs | _ -> []) d.clauses

(** Does the clause imply host-to-device transfer at region entry? *)
let kind_copies_in = function
  | Dk_copy | Dk_copyin | Dk_pcopy | Dk_pcopyin -> true
  | Dk_copyout | Dk_create | Dk_present | Dk_pcopyout | Dk_pcreate
  | Dk_deviceptr -> false

(** Does the clause imply device-to-host transfer at region exit? *)
let kind_copies_out = function
  | Dk_copy | Dk_copyout | Dk_pcopy | Dk_pcopyout -> true
  | Dk_copyin | Dk_create | Dk_present | Dk_pcopyin | Dk_pcreate
  | Dk_deviceptr -> false

(** Does the clause allocate device memory on entry (vs requiring presence)? *)
let kind_allocates = function
  | Dk_copy | Dk_copyin | Dk_copyout | Dk_create | Dk_pcopy | Dk_pcopyin
  | Dk_pcopyout | Dk_pcreate -> true
  | Dk_present | Dk_deviceptr -> false

(** Is this a compute construct (introduces GPU kernels)? *)
let is_compute = function
  | Acc_parallel | Acc_kernels | Acc_parallel_loop | Acc_kernels_loop -> true
  | Acc_data | Acc_host_data | Acc_loop | Acc_update | Acc_declare
  | Acc_wait _ | Acc_cache _ -> false

(** Directives of a whole program, in pre-order, with the [sid] of the
    carrying [Sacc] statement. *)
let directives_of prog =
  let acc = ref [] in
  List.iter
    (fun f ->
      iter_stmts
        (fun s ->
          match s.skind with
          | Sacc (d, _) -> acc := (s.sid, f.f_name, d) :: !acc
          | _ -> ())
        f.f_body)
    (functions prog);
  List.rev !acc
