(** Directive and statement editing.

    The interactive optimization loop of the paper has the *programmer* edit
    the data clauses of the input OpenACC program after each round of tool
    suggestions.  These primitives are the edits: they rewrite directives in
    place (addressed by the [sid] of the carrying [Sacc] statement), move a
    variable between data-clause kinds, and insert/remove [update] directives
    relative to existing statements. *)

open Minic.Ast

let sub v = { sub_var = v; sub_lo = None; sub_len = None }

(** Remove [v] from every data clause in [clauses]; drops emptied clauses. *)
let remove_data_var clauses v =
  List.filter_map
    (function
      | Cdata (kind, subs) -> (
          match List.filter (fun s -> s.sub_var <> v) subs with
          | [] -> None
          | subs -> Some (Cdata (kind, subs)))
      | c -> Some c)
    clauses

let remove_private_var clauses v =
  List.filter_map
    (function
      | Cprivate vs -> (
          match List.filter (fun x -> x <> v) vs with
          | [] -> None
          | vs -> Some (Cprivate vs))
      | c -> Some c)
    clauses

let remove_reduction_var clauses v =
  List.filter_map
    (function
      | Creduction (op, vs) -> (
          match List.filter (fun x -> x <> v) vs with
          | [] -> None
          | vs -> Some (Creduction (op, vs)))
      | c -> Some c)
    clauses

(** Add [sa] to the data clause of [kind], merging with an existing clause of
    the same kind when present. *)
let add_data_sub clauses kind sa =
  let merged = ref false in
  let clauses =
    List.map
      (function
        | Cdata (k, subs) when k = kind && not !merged ->
            merged := true;
            Cdata (k, subs @ [ sa ])
        | c -> c)
      clauses
  in
  if !merged then clauses else clauses @ [ Cdata (kind, [ sa ]) ]

let add_data_var clauses kind v = add_data_sub clauses kind (sub v)

(** Add [v] to the [private] clause, merging with an existing one. *)
let add_private_var clauses v =
  let clauses = remove_private_var clauses v in
  let merged = ref false in
  let clauses =
    List.map
      (function
        | Cprivate vs when not !merged ->
            merged := true;
            Cprivate (vs @ [ v ])
        | c -> c)
      clauses
  in
  if !merged then clauses else clauses @ [ Cprivate [ v ] ]

(** Add [v] to the [reduction(op:...)] clause, merging with an existing
    clause of the same operator. *)
let add_reduction_var clauses op v =
  let clauses = remove_reduction_var clauses v in
  let merged = ref false in
  let clauses =
    List.map
      (function
        | Creduction (o, vs) when o = op && not !merged ->
            merged := true;
            Creduction (o, vs @ [ v ])
        | c -> c)
      clauses
  in
  if !merged then clauses else clauses @ [ Creduction (op, [ v ]) ]

(** Move [v] to data-clause kind [kind] (removing it from any other). *)
let set_data_kind clauses v kind =
  add_data_var (remove_data_var clauses v) kind v

let find_data_kind clauses v =
  List.find_map
    (function
      | Cdata (kind, subs) when List.exists (fun s -> s.sub_var = v) subs ->
          Some kind
      | _ -> None)
    clauses

(** Number the statements of [prog] that have no id yet (built by
    {!Minic.Ast.mk_stmt}) above the program's largest sid, in the order
    the parser numbers statements.  Every edit that places statements
    ends with this, so ids stay a function of the program. *)
let number prog =
  let top = ref 0 in
  List.iter
    (fun f -> iter_stmts (fun s -> top := max !top s.sid) f.f_body)
    (functions prog);
  map_program
    (fun s ->
      if s.sid <> 0 then s
      else begin
        incr top;
        { s with sid = !top }
      end)
    prog

(** Rewrite the directive carried by statement [sid].  Returns the rewritten
    program; [f] is applied exactly to the matching directive. *)
let map_directive prog ~sid ~f =
  map_program
    (fun s ->
      match s.skind with
      | Sacc (d, body) when s.sid = sid -> { s with skind = Sacc (f d, body) }
      | _ -> s)
    prog

(* Rebuild every block, letting [f] replace each statement by a list. *)
let rec expand_block f b = List.concat_map (expand_stmt f) b

and expand_stmt f s =
  let skind =
    match s.skind with
    | (Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue)
      as k -> k
    | Sif (c, b1, b2) -> Sif (c, expand_block f b1, expand_block f b2)
    | Swhile (c, b) -> Swhile (c, expand_block f b)
    | Sfor (i, c, st, b) -> Sfor (i, c, st, expand_block f b)
    | Sblock b -> Sblock (expand_block f b)
    | Sacc (d, body) ->
        Sacc (d, Option.map (fun b -> as_single (expand_stmt f b)) body)
  in
  f { s with skind }

and as_single = function
  | [ s ] -> s
  | stmts -> mk_stmt (Sblock stmts)

let expand_program f prog =
  number
    { globals =
        List.map
          (function
            | Gfunc fn -> Gfunc { fn with f_body = expand_block f fn.f_body }
            | g -> g)
          prog.globals }

(** Insert [stmts] immediately after the statement with id [sid]. *)
let insert_after prog ~sid stmts =
  expand_program (fun s -> if s.sid = sid then s :: stmts else [ s ]) prog

(** Insert [stmts] immediately before the statement with id [sid]. *)
let insert_before prog ~sid stmts =
  expand_program (fun s -> if s.sid = sid then stmts @ [ s ] else [ s ]) prog

(** Delete the statement with id [sid] (directive statements included). *)
let remove_stmt prog ~sid =
  expand_program (fun s -> if s.sid = sid then [] else [ s ]) prog

(** Build an [update host(vs)] or [update device(vs)] statement. *)
let mk_update ?(loc = Minic.Loc.dummy) ~host vars =
  let subs = List.map sub vars in
  let clauses = if host then [ Chost subs ] else [ Cdevice subs ] in
  mk_stmt ~loc (Sacc ({ dir = Acc_update; clauses; dloc = loc }, None))

(** Find the innermost enclosing loop statement of [sid], if any. *)
let enclosing_loop prog ~sid =
  let result = ref None in
  let rec walk_stmt enclosing s =
    let enclosing' =
      match s.skind with Sfor _ | Swhile _ -> Some s | _ -> enclosing
    in
    if s.sid = sid then (if !result = None then result := Some enclosing);
    match s.skind with
    | Sif (_, b1, b2) -> List.iter (walk_stmt enclosing') b1;
                         List.iter (walk_stmt enclosing') b2
    | Swhile (_, b) -> List.iter (walk_stmt enclosing') b
    | Sfor (_, _, _, b) -> List.iter (walk_stmt enclosing') b
    | Sblock b -> List.iter (walk_stmt enclosing') b
    | Sacc (_, body) -> Option.iter (walk_stmt enclosing') body
    | Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue ->
        ()
  in
  List.iter
    (fun f -> List.iter (walk_stmt None) f.f_body)
    (functions prog);
  Option.join !result

(** Remove [v] from the [host]/[device] clauses of an update directive's
    clause list; drops emptied clauses. *)
let remove_update_var clauses ~host v =
  List.filter_map
    (function
      | Chost subs when host -> (
          match List.filter (fun s -> s.sub_var <> v) subs with
          | [] -> None
          | subs -> Some (Chost subs))
      | Cdevice subs when not host -> (
          match List.filter (fun s -> s.sub_var <> v) subs with
          | [] -> None
          | subs -> Some (Cdevice subs))
      | c -> Some c)
    clauses

(** Data-clause weakening used by the optimizer: drop the [side] of a
    clause kind that a profiled run showed to be redundant. *)
let weaken_kind kind side =
  match (kind, side) with
  | (Dk_copy | Dk_pcopy), `In -> Dk_copyout
  | (Dk_copy | Dk_pcopy), `Out -> Dk_copyin
  | (Dk_copyin | Dk_pcopyin), `In -> Dk_create
  | (Dk_copyout | Dk_pcopyout), `Out -> Dk_create
  | k, _ -> k

(** Weaken [v]'s data clause on the directive at [sid]. *)
let weaken_clause prog ~sid ~var ~side =
  map_directive prog ~sid ~f:(fun d ->
      match find_data_kind d.clauses var with
      | None -> d
      | Some kind ->
          let kind' = weaken_kind kind side in
          if kind' = kind then d
          else { d with clauses = set_data_kind d.clauses var kind' })

(* sids contained in a statement, including itself. *)
let sids_of_stmt s =
  let acc = ref [] in
  iter_stmt (fun st -> acc := st.sid :: !acc) s;
  !acc

(** Wrap the contiguous span of [main]'s top-level statements that contains
    both [first_sid] and [last_sid] in a directive (typically [data]). *)
let wrap_span prog ~first_sid ~last_sid ~directive =
  let globals =
    List.map
      (function
        | Gfunc fn when fn.f_name = "main" ->
            let body = fn.f_body in
            let contains sid s = List.mem sid (sids_of_stmt s) in
            let idx_of sid =
              let rec go i = function
                | [] -> None
                | s :: rest -> if contains sid s then Some i else go (i + 1) rest
              in
              go 0 body
            in
            (match (idx_of first_sid, idx_of last_sid) with
            | Some i, Some j ->
                let lo = min i j and hi = max i j in
                let before = List.filteri (fun k _ -> k < lo) body in
                let span =
                  List.filteri (fun k _ -> k >= lo && k <= hi) body
                in
                let after = List.filteri (fun k _ -> k > hi) body in
                let wrapped =
                  mk_stmt
                    (Sacc (directive, Some (mk_stmt (Sblock span))))
                in
                Gfunc { fn with f_body = before @ [ wrapped ] @ after }
            | _ -> Gfunc fn)
        | g -> g)
      prog.globals
  in
  number { globals }

(** Wrap the single statement [sid] — at any nesting depth — in a directive
    (typically [data]).  The wrapped statement keeps its sid; the new
    carrying [Sacc] statement is numbered above the program's largest. *)
let wrap_stmt prog ~sid ~directive =
  expand_program
    (fun s ->
      if s.sid = sid then [ mk_stmt ~loc:s.sloc (Sacc (directive, Some s)) ]
      else [ s ])
    prog

(** Build a [data] directive from (var, kind) clauses. *)
let mk_data_directive ?(loc = Minic.Loc.dummy) vars =
  let clauses =
    List.map (fun (v, kind) -> Cdata (kind, [ sub v ])) vars
  in
  { dir = Acc_data; clauses; dloc = loc }

(** Does the program already contain an explicit data region? *)
let has_data_region prog =
  List.exists
    (fun (_, _, d) -> d.dir = Acc_data)
    (Query.directives_of prog)

(** Clause strengthening: when a profiled run shows a transfer is *missing*
    on [side] of a region boundary, the clause grows the corresponding
    copy. *)
let strengthen_kind kind side =
  match (kind, side) with
  | (Dk_create | Dk_pcreate), `Out -> Dk_copyout
  | (Dk_copyin | Dk_pcopyin), `Out -> Dk_copy
  | (Dk_create | Dk_pcreate), `In -> Dk_copyin
  | (Dk_copyout | Dk_pcopyout), `In -> Dk_copy
  | k, _ -> k

let strengthen_clause prog ~sid ~var ~side =
  map_directive prog ~sid ~f:(fun d ->
      match find_data_kind d.clauses var with
      | None -> d
      | Some kind ->
          let kind' = strengthen_kind kind side in
          if kind' = kind then d
          else { d with clauses = set_data_kind d.clauses var kind' })

(** Data-region directives (sid, directive) that name [var] in a data
    clause, paired with whether their subtree contains statement [at]. *)
let regions_with_var prog ~var =
  let acc = ref [] in
  List.iter
    (fun f ->
      iter_stmts
        (fun s ->
          match s.skind with
          | Sacc (({ dir = Acc_data; _ } as d), _)
            when List.mem var (Query.data_vars d) ->
              acc := (s.sid, d, sids_of_stmt s) :: !acc
          | _ -> ())
        f.f_body)
    (functions prog);
  List.rev !acc
