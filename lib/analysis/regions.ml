(** Access analysis of compute-region bodies.

    For a region (the statement under a [kernels]/[parallel] directive) this
    computes which arrays are read and written, how each scalar is first
    accessed (the input to automatic privatization), which scalars follow the
    accumulator pattern (the input to automatic reduction recognition), and a
    static operation-count estimate used by the simulator's kernel cost
    model.  Pointer accesses are resolved through {!Alias}; ambiguous
    pointers are reported so downstream deadness facts can be weakened. *)

open Minic.Ast

type first = First_read | First_write

type t = {
  arrays_read : Varset.t;
  arrays_written : Varset.t;
  raw_read : Varset.t;  (** accessed array/pointer names, unresolved *)
  raw_written : Varset.t;
  scalars_read : Varset.t;
  scalars_written : Varset.t;
  declared : Varset.t;  (** names declared inside the region *)
  first_access : (string, first) Hashtbl.t;  (** per scalar *)
  accumulators : (string * redop) list;
      (** scalars whose every write is [v = v op e] and which are read
          nowhere else inside the region *)
  ops : int;  (** static per-execution operation estimate *)
  ambiguous : Varset.t;  (** ambiguous pointers accessed in the region *)
}

type ctx = {
  alias : Alias.t;
  mutable ar : Varset.t;
  mutable aw : Varset.t;
  mutable rr : Varset.t;
  mutable rw : Varset.t;
  mutable sr : Varset.t;
  mutable sw : Varset.t;
  mutable dcl : Varset.t;
  firsts : (string, first) Hashtbl.t;
  red_writes : (string, redop list) Hashtbl.t;
  plain_writes : (string, int) Hashtbl.t;
  nonred_reads : (string, int) Hashtbl.t;
  mutable ops : int;
  mutable amb : Varset.t;
}

let is_storage ctx v = not (Varset.is_empty (Alias.resolve ctx.alias v))

let roots ctx v =
  let r = Alias.resolve ctx.alias v in
  if Varset.cardinal r > 1 then ctx.amb <- Varset.add v ctx.amb;
  r

let note_first ctx v k =
  if not (Hashtbl.mem ctx.firsts v) then Hashtbl.add ctx.firsts v k

let bump tbl v =
  Hashtbl.replace tbl v (1 + Option.value ~default:0 (Hashtbl.find_opt tbl v))

let read_scalar ctx ?(reduction = false) v =
  ctx.sr <- Varset.add v ctx.sr;
  note_first ctx v First_read;
  if not reduction then bump ctx.nonred_reads v

let write_scalar ctx v =
  ctx.sw <- Varset.add v ctx.sw;
  note_first ctx v First_write

let read_array ctx v =
  ctx.rr <- Varset.add v ctx.rr;
  ctx.ar <- Varset.union (roots ctx v) ctx.ar

let write_array ctx v =
  ctx.rw <- Varset.add v ctx.rw;
  ctx.aw <- Varset.union (roots ctx v) ctx.aw

let rec read_expr ctx e =
  ctx.ops <- ctx.ops + 1;
  match e with
  | Eint _ | Efloat _ -> ()
  | Evar v -> if is_storage ctx v then read_array ctx v else read_scalar ctx v
  | Eindex (a, i) ->
      (match a with
      | Evar v -> read_array ctx v
      | _ -> read_expr ctx a);
      read_expr ctx i
  | Eunop (_, a) -> read_expr ctx a
  | Ebinop (_, a, b) -> read_expr ctx a; read_expr ctx b
  | Ecall (_, args) -> List.iter (read_expr ctx) args
  | Econd (c, a, b) -> read_expr ctx c; read_expr ctx a; read_expr ctx b

(* Recognize "v = v op e" / "v = e op v" (and min/max calls) for scalar v;
   returns the operator and the non-self operand. *)
let reduction_pattern v rhs =
  let op_of = function
    | Add -> Some Rsum
    | Mul -> Some Rprod
    | Land -> Some Rland
    | Lor -> Some Rlor
    | Sub | Div | Mod | Lt | Le | Gt | Ge | Eq | Ne -> None
  in
  match rhs with
  | Ebinop (op, Evar v', e) when v' = v -> (
      match op_of op with Some r -> Some (r, e) | None -> None)
  | Ebinop (op, e, Evar v') when v' = v && (op = Add || op = Mul) -> (
      match op_of op with Some r -> Some (r, e) | None -> None)
  | Ecall ("max", [ Evar v'; e ]) when v' = v -> Some (Rmax, e)
  | Ecall ("max", [ e; Evar v' ]) when v' = v -> Some (Rmax, e)
  | Ecall ("min", [ Evar v'; e ]) when v' = v -> Some (Rmin, e)
  | Ecall ("min", [ e; Evar v' ]) when v' = v -> Some (Rmin, e)
  | _ -> None

let rec write_lvalue ctx lv =
  ctx.ops <- ctx.ops + 1;
  match lv with
  | Lvar v ->
      if is_storage ctx v then write_array ctx v else write_scalar ctx v
  | Lindex (base, i) ->
      read_expr ctx i;
      (match base with
      | Lvar v -> write_array ctx v
      | _ -> write_lvalue ctx base)

let rec scan_stmt ctx s =
  ctx.ops <- ctx.ops + 1;
  match s.skind with
  | Sskip | Sbreak | Scontinue -> ()
  | Sexpr e -> read_expr ctx e
  | Sassign (Lvar v, Evar _) when is_storage ctx v ->
      (* Pointer rebinding ("p = a"): changes which buffer [v] designates but
         reads/writes no array data. *)
      ()
  | Sassign (Lvar v, rhs) when not (is_storage ctx v) -> (
      (* Scalar assignment: detect the accumulator pattern first so the
         self-read does not disqualify reduction recognition. *)
      match reduction_pattern v rhs with
      | Some (op, operand) ->
          read_scalar ctx ~reduction:true v;
          read_expr ctx operand;
          write_scalar ctx v;
          Hashtbl.replace ctx.red_writes v
            (op :: Option.value ~default:[] (Hashtbl.find_opt ctx.red_writes v))
      | None ->
          read_expr ctx rhs;
          write_scalar ctx v;
          bump ctx.plain_writes v)
  | Sassign (lv, rhs) ->
      read_expr ctx rhs;
      write_lvalue ctx lv
  | Sdecl (Tptr _, v, _) ->
      (* Pointer declaration, possibly aliasing an array: no data access. *)
      ctx.dcl <- Varset.add v ctx.dcl
  | Sdecl (_, v, init) ->
      ctx.dcl <- Varset.add v ctx.dcl;
      Option.iter (read_expr ctx) init
  | Sif (c, b1, b2) ->
      read_expr ctx c;
      List.iter (scan_stmt ctx) b1;
      List.iter (scan_stmt ctx) b2
  | Swhile (c, b) ->
      read_expr ctx c;
      List.iter (scan_stmt ctx) b
  | Sfor (init, cond, step, b) ->
      Option.iter (scan_stmt ctx) init;
      Option.iter (read_expr ctx) cond;
      List.iter (scan_stmt ctx) b;
      Option.iter (scan_stmt ctx) step
  | Sblock b -> List.iter (scan_stmt ctx) b
  | Sreturn e -> Option.iter (read_expr ctx) e
  | Sacc (_, body) -> Option.iter (scan_stmt ctx) body

let fresh alias =
  { alias; ar = Varset.empty; aw = Varset.empty; rr = Varset.empty;
    rw = Varset.empty; sr = Varset.empty;
    sw = Varset.empty; dcl = Varset.empty; firsts = Hashtbl.create 16;
    red_writes = Hashtbl.create 8; plain_writes = Hashtbl.create 8;
    nonred_reads = Hashtbl.create 8; ops = 0; amb = Varset.empty }

(** Analyze the statements of a region.  [alias] must come from the
    enclosing function. *)
let analyze ~alias stmts =
  let ctx = fresh alias in
  List.iter (scan_stmt ctx) stmts;
  let accumulators =
    Hashtbl.fold
      (fun v ops acc ->
        let pure_reduction =
          (not (Hashtbl.mem ctx.plain_writes v))
          && (not (Hashtbl.mem ctx.nonred_reads v))
          && (not (Varset.mem v ctx.dcl))
          &&
          match ops with
          | [] -> false
          | op :: rest -> List.for_all (fun o -> o = op) rest
        in
        if pure_reduction then (v, List.hd ops) :: acc else acc)
      ctx.red_writes []
  in
  { arrays_read = ctx.ar; arrays_written = ctx.aw; raw_read = ctx.rr;
    raw_written = ctx.rw; scalars_read = ctx.sr;
    scalars_written = ctx.sw; declared = ctx.dcl; first_access = ctx.firsts;
    accumulators; ops = ctx.ops; ambiguous = ctx.amb }

(** Scalars written in the region, not declared inside, whose first access is
    a write: candidates for automatic privatization. *)
let privatizable t =
  Varset.filter
    (fun v ->
      (not (Varset.mem v t.declared))
      && Hashtbl.find_opt t.first_access v = Some First_write)
    t.scalars_written

(** Host-side access analysis of an arbitrary statement (used when building
    DEF/USE sets of translated host statements). *)
let of_stmt ~alias s = analyze ~alias [ s ]
