(** OpenACC V1.0 directive validation: clause legality per construct,
    well-formedness of nesting, and data-clause sanity.

    OpenARC accepts the full OpenACC V1.0 feature set; this module rejects
    programs outside it before translation, with located error messages. *)

open Minic
open Minic.Ast

let clause_name = function
  | Cdata (k, _) -> Pretty.data_kind_str k
  | Cprivate _ -> "private"
  | Cfirstprivate _ -> "firstprivate"
  | Creduction _ -> "reduction"
  | Cgang _ -> "gang"
  | Cworker _ -> "worker"
  | Cvector _ -> "vector"
  | Cnum_gangs _ -> "num_gangs"
  | Cnum_workers _ -> "num_workers"
  | Cvector_length _ -> "vector_length"
  | Casync _ -> "async"
  | Cif _ -> "if"
  | Ccollapse _ -> "collapse"
  | Cseq -> "seq"
  | Cindependent -> "independent"
  | Chost _ -> "host"
  | Cdevice _ -> "device"
  | Cuse_device _ -> "use_device"

(* Clause legality table, following the OpenACC 1.0 spec (§2). *)
let allowed_on construct clause =
  let data_ok = match clause with Cdata _ -> true | _ -> false in
  match construct with
  | Acc_parallel | Acc_kernels -> (
      data_ok
      ||
      match clause with
      | Casync _ | Cif _ | Cnum_gangs _ | Cnum_workers _ | Cvector_length _
      | Cprivate _ | Cfirstprivate _ | Creduction _ -> true
      | _ -> false)
  | Acc_parallel_loop | Acc_kernels_loop -> (
      data_ok
      ||
      match clause with
      | Casync _ | Cif _ | Cnum_gangs _ | Cnum_workers _ | Cvector_length _
      | Cprivate _ | Cfirstprivate _ | Creduction _ | Cgang _ | Cworker _
      | Cvector _ | Ccollapse _ | Cseq | Cindependent -> true
      | _ -> false)
  | Acc_loop -> (
      match clause with
      | Cgang _ | Cworker _ | Cvector _ | Ccollapse _ | Cseq | Cindependent
      | Cprivate _ | Creduction _ -> true
      | _ -> false)
  | Acc_data -> data_ok || (match clause with Cif _ -> true | _ -> false)
  | Acc_host_data -> ( match clause with Cuse_device _ -> true | _ -> false)
  | Acc_update -> (
      match clause with
      | Chost _ | Cdevice _ | Casync _ | Cif _ -> true
      | _ -> false)
  | Acc_declare -> data_ok
  | Acc_wait _ | Acc_cache _ -> false

let construct_name d = Pretty.construct_str d

exception Invalid of Loc.t * string

let rec const_int = function
  | Eint n -> Some n
  | Eunop (Neg, e) -> Option.map (fun n -> -n) (const_int e)
  | Ebinop (((Add | Sub | Mul) as op), a, b) -> (
      match (const_int a, const_int b) with
      | Some x, Some y ->
          Some (match op with Add -> x + y | Sub -> x - y | _ -> x * y)
      | _ -> None)
  | _ -> None

(* Element count of an array type whose every extent is constant: 32 for
   "float a[4][8]" (subarray bounds index the flattened buffer). *)
let rec const_elements = function
  | Tarr ((Tint | Tfloat), Some e) -> const_int e
  | Tarr ((Tarr _ as t), Some e) -> (
      match (const_int e, const_elements t) with
      | Some n, Some m -> Some (n * m)
      | _ -> None)
  | _ -> None

let subarrays d =
  List.map snd (Query.data_clauses d)
  @ Query.update_host_subs d @ Query.update_device_subs d

let invalid loc fmt = Fmt.kstr (fun m -> raise (Invalid (loc, m))) fmt

let () =
  Printexc.register_printer (function
    | Invalid (loc, m) -> Some (Fmt.str "OpenACC error at %a: %s" Loc.pp loc m)
    | _ -> None)

let check_directive d =
  List.iter
    (fun cl ->
      if not (allowed_on d.dir cl) then
        invalid d.dloc "clause '%s' is not allowed on '%s'" (clause_name cl)
          (construct_name d.dir))
    d.clauses;
  (* A variable may appear in at most one data clause of a directive. *)
  let seen = Hashtbl.create 8 in
  List.iter
    (fun (_, sub) ->
      if Hashtbl.mem seen sub.sub_var then
        invalid d.dloc "variable '%s' appears in multiple data clauses"
          sub.sub_var;
      Hashtbl.add seen sub.sub_var ())
    (Query.data_clauses d);
  (* Clauses that configure the construct may appear at most once. *)
  let singles = Hashtbl.create 8 in
  List.iter
    (fun cl ->
      match cl with
      | Cif _ | Casync _ | Cnum_gangs _ | Cnum_workers _ | Cvector_length _
      | Ccollapse _ | Cgang _ | Cworker _ | Cvector _ | Cseq
      | Cindependent ->
          let n = clause_name cl in
          if Hashtbl.mem singles n then
            invalid d.dloc "duplicate '%s' clause" n;
          Hashtbl.add singles n ()
      | _ -> ())
    d.clauses;
  if Hashtbl.mem singles "seq" && Hashtbl.mem singles "independent" then
    invalid d.dloc "'seq' and 'independent' are contradictory";
  List.iter
    (function
      | Ccollapse n when n < 1 ->
          invalid d.dloc "collapse(%d): argument must be at least 1" n
      | _ -> ())
    d.clauses;
  (* update requires at least one host/device clause. *)
  (match d.dir with
  | Acc_update ->
      if Query.update_host_subs d = [] && Query.update_device_subs d = [] then
        invalid d.dloc "update directive needs a host() or device() clause"
  | _ -> ());
  (* Subarray sanity: a constant lower bound must be non-negative, a
     constant length positive.  Bounds must be both present or both
     absent (the parser enforces that). *)
  let check_sub sub =
    (match Option.bind sub.sub_lo const_int with
    | Some lo when lo < 0 ->
        invalid d.dloc "subarray '%s[%d:...]': negative lower bound"
          sub.sub_var lo
    | _ -> ());
    match Option.bind sub.sub_len const_int with
    | Some n when n <= 0 ->
        invalid d.dloc "subarray '%s[...:%d]': length must be positive"
          sub.sub_var n
    | _ -> ()
  in
  List.iter check_sub (subarrays d);
  (* Private vars must not also be in a data clause or a reduction. *)
  let data_vars = Query.data_vars d in
  let red_vars = List.map snd (Query.reductions d) in
  List.iter
    (fun v ->
      if List.mem v data_vars then
        invalid d.dloc "variable '%s' is both private and in a data clause" v;
      if List.mem v red_vars then
        invalid d.dloc "variable '%s' is both private and a reduction" v)
    (Query.private_vars d)

module Smap = Map.Make (String)

(* The names in scope that denote an array of constant element count.  A
   declaration of anything else shadows the name out of the map: scalars,
   pointers and run-time extents, whose ranges the runtime checks when the
   transfer executes. *)
let declare extents v t =
  match const_elements t with
  | Some n -> Smap.add v n extents
  | None -> Smap.remove v extents

(* A constant subarray must end inside its array's constant extent. *)
let check_extents extents d =
  List.iter
    (fun sub ->
      match
        (Option.bind sub.sub_lo const_int, Option.bind sub.sub_len const_int)
      with
      | Some lo, Some len -> (
          match Smap.find_opt sub.sub_var extents with
          | Some n when lo + len > n ->
              invalid d.dloc
                "subarray '%s[%d:%d]' runs past the end of '%s' (%d \
                 element(s))"
                sub.sub_var lo len sub.sub_var n
          | _ -> ())
      | _ -> ())
    (subarrays d)

(* Structural rules on the statement tree.  [check_stmt] returns the
   extents in scope after [s]: a declaration adds its name for the rest of
   the enclosing block. *)
let rec check_block ~in_compute extents b =
  ignore (List.fold_left (check_stmt ~in_compute) extents b)

and check_stmt ~in_compute extents s =
  match s.skind with
  | Sacc (d, body) ->
      check_directive d;
      check_extents extents d;
      (match d.dir with
      | Acc_parallel | Acc_kernels | Acc_parallel_loop | Acc_kernels_loop ->
          if in_compute then
            invalid d.dloc "compute regions may not nest";
          (match body with
          | Some _ -> ()
          | None ->
              invalid d.dloc "'%s' requires a following statement"
                (construct_name d.dir))
      | Acc_data | Acc_host_data ->
          if in_compute then
            invalid d.dloc "'%s' may not appear inside a compute region"
              (construct_name d.dir)
      | Acc_loop ->
          if not in_compute then
            invalid d.dloc
              "orphaned 'loop' directive outside any compute region";
          (match body with
          | Some { skind = Sfor _; _ } -> ()
          | _ -> invalid d.dloc "'loop' must be followed by a for loop")
      | Acc_update | Acc_wait _ ->
          if in_compute then
            invalid d.dloc "'%s' may not appear inside a compute region"
              (construct_name d.dir)
      | Acc_declare | Acc_cache _ -> ());
      let in_compute = in_compute || Query.is_compute d.dir in
      (* loop directives must be attached to a for statement *)
      (match (d.dir, body) with
      | (Acc_parallel_loop | Acc_kernels_loop), Some { skind = Sfor _; _ } -> ()
      | (Acc_parallel_loop | Acc_kernels_loop), Some _ ->
          invalid d.dloc "'%s' must be followed by a for loop"
            (construct_name d.dir)
      | _ -> ());
      Option.iter (fun b -> ignore (check_stmt ~in_compute extents b)) body;
      extents
  | Sdecl (t, v, _) -> declare extents v t
  | Sif (_, b1, b2) ->
      check_block ~in_compute extents b1;
      check_block ~in_compute extents b2;
      extents
  | Swhile (_, b) | Sblock b ->
      check_block ~in_compute extents b;
      extents
  | Sfor (init, _, _, b) ->
      let inner =
        Option.fold ~none:extents ~some:(check_stmt ~in_compute extents) init
      in
      check_block ~in_compute inner b;
      extents
  | Sskip | Sexpr _ | Sassign _ | Sreturn _ | Sbreak | Scontinue -> extents

(** Validate every directive in [prog]; raises {!Invalid} on the first
    violation. *)
let check_program prog =
  let globals =
    List.fold_left
      (fun extents g ->
        match g with Gvar (t, v, _) -> declare extents v t | Gfunc _ -> extents)
      Smap.empty prog.globals
  in
  List.iter
    (fun f ->
      (* parameters are pointers, whatever their declared extent *)
      let extents =
        List.fold_left (fun m p -> Smap.remove p.p_name m) globals f.f_params
      in
      check_block ~in_compute:false extents f.f_body)
    (functions prog)
