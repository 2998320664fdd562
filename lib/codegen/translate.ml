(** OpenARC translation: lower an OpenACC-annotated Mini-C program to a
    {!Tprog.t}.

    Data semantics follow OpenACC V1.0: [data] regions allocate and transfer
    at entry/exit according to their clauses; arrays accessed by a compute
    region that are not covered by any enclosing data clause fall back to the
    *default scheme* — copy in before the kernel launch and copy back after —
    which is exactly the naive baseline of the paper's Figure 1. *)

open Minic
open Minic.Ast
open Analysis
open Tprog

type state = {
  opts : Options.t;
  env : Typecheck.env;
  prog : Ast.program;
  alias : Alias.t;
  fname : string;
  mutable kernels : kernel list;  (** reversed *)
  mutable next_kernel : int;
  mutable tracked : Varset.t;
  mutable denv : (string * data_kind) list list;  (** data-region stack *)
  mutable update_count : int;
  mutable last_tid : int;  (** statements are numbered from 1 *)
  mutable last_site : int;  (** and so are sites *)
}

let mk st ~loc ~sid tkind =
  st.last_tid <- st.last_tid + 1;
  { tid = st.last_tid; tkind; tloc = loc; tsid = sid }

let mk_site st ~loc ~sid ~var label =
  st.last_site <- st.last_site + 1;
  { site_id = st.last_site; site_label = label; site_var = var;
    site_sid = sid; site_loc = loc }

let fresh_kernel st () =
  let id = st.next_kernel in
  st.next_kernel <- id + 1;
  id

let present st root =
  List.exists (List.exists (fun (v, _) -> v = root)) st.denv

let push_frame st = st.denv <- [] :: st.denv

let pop_frame st =
  match st.denv with
  | _ :: rest -> st.denv <- rest
  | [] -> invalid_arg "Translate.pop_frame"

let add_to_frame st root kind =
  match st.denv with
  | frame :: rest -> st.denv <- ((root, kind) :: frame) :: rest
  | [] -> invalid_arg "Translate.add_to_frame"

(* Add to the outermost (function-wide) frame: used for `declare`. *)
let add_to_bottom st root kind =
  match List.rev st.denv with
  | [] -> invalid_arg "Translate.add_to_bottom"
  | bottom :: rest_rev ->
      st.denv <- List.rev (((root, kind) :: bottom) :: rest_rev)

let track st root = st.tracked <- Varset.add root st.tracked

let is_array st v =
  match Typecheck.var_type st.env st.fname v with
  | Some (Tarr _ | Tptr _) -> true
  | Some _ | None -> false

(* Array roots denoted by a data-clause variable. *)
let clause_roots st v = Varset.elements (Alias.resolve st.alias v)

let mk_xfer st ?lo ?len ?async ~site ~dir var =
  mk st ~loc:site.site_loc ~sid:site.site_sid
    (Txfer { x_var = var; x_dir = dir; x_lo = lo; x_len = len;
             x_async = async; x_site = site })

(* Entry/exit operations of a data construct (explicit region or the data
   clauses attached to a compute construct). Returns (entry, exit) statement
   lists; [label] prefixes site names. *)
let data_region_ops st ~label ~sid ~loc clauses =
  let entry = ref [] and exit_ = ref [] in
  List.iter
    (fun (kind, sub) ->
      if is_array st sub.sub_var then
        List.iter
          (fun root ->
            track st root;
            let already = present st root in
            let allocates = Acc.Query.kind_allocates kind && not already in
            if allocates then begin
              let site =
                mk_site st ~loc ~sid ~var:sub.sub_var
                  (Printf.sprintf "%s.alloc(%s)" label root)
              in
              entry := mk st ~loc ~sid (Talloc (root, site)) :: !entry
            end;
            if Acc.Query.kind_copies_in kind && not already then begin
              let site =
                mk_site st ~loc ~sid ~var:sub.sub_var
                  (Printf.sprintf "%s.%s(%s)" label
                     (Pretty.data_kind_str kind) root)
              in
              entry :=
                mk_xfer st ?lo:sub.sub_lo ?len:sub.sub_len ~site ~dir:H2D root
                :: !entry
            end;
            if Acc.Query.kind_copies_out kind && not already then begin
              let site =
                mk_site st ~loc ~sid ~var:sub.sub_var
                  (Printf.sprintf "%s.copyout(%s)" label root)
              in
              exit_ :=
                mk_xfer st ?lo:sub.sub_lo ?len:sub.sub_len ~site ~dir:D2H root
                :: !exit_
            end;
            if allocates then begin
              let site =
                mk_site st ~loc ~sid ~var:sub.sub_var
                  (Printf.sprintf "%s.free(%s)" label root)
              in
              exit_ := mk st ~loc ~sid (Tfree (root, site)) :: !exit_
            end;
            if not already then add_to_frame st root kind)
          (clause_roots st sub.sub_var))
    (List.concat_map
       (function Cdata (k, subs) -> List.map (fun s -> (k, s)) subs | _ -> [])
       clauses);
  (List.rev !entry, List.rev !exit_)

let rec contains_acc s =
  match s.skind with
  | Sacc _ -> true
  | Sif (_, b1, b2) -> List.exists contains_acc b1 || List.exists contains_acc b2
  | Swhile (_, b) | Sblock b -> List.exists contains_acc b
  | Sfor (_, _, _, b) -> List.exists contains_acc b
  | Sskip | Sexpr _ | Sassign _ | Sdecl _ | Sreturn _ | Sbreak | Scontinue ->
      false

let rec tr_stmt st s : tstmt list =
  let loc = s.sloc in
  match s.skind with
  | Sacc (d, body) -> tr_directive st s d body
  | Sif (c, b1, b2) when List.exists contains_acc (b1 @ b2) ->
      [ mk st ~loc ~sid:s.sid (Tif (c, tr_block st b1, tr_block st b2)) ]
  | Swhile (c, b) when List.exists contains_acc b ->
      [ mk st ~loc ~sid:s.sid (Twhile (c, tr_block st b)) ]
  | Sfor (init, cond, step, b) when List.exists contains_acc b ->
      [ mk st ~loc ~sid:s.sid (Tfor (init, cond, step, tr_block st b)) ]
  | Sblock b when List.exists contains_acc b ->
      [ mk st ~loc ~sid:s.sid (Tblock (tr_block st b)) ]
  | _ -> [ mk st ~loc ~sid:s.sid (Thost s) ]

and tr_block st b = List.concat_map (tr_stmt st) b

and tr_directive st s d body =
  let loc = d.dloc in
  match d.dir with
  | Acc_data -> (
      match Acc.Query.if_clause d with
      | None | Some (Eint 1) ->
          push_frame st;
          let entry, exit_ =
            data_region_ops st ~label:(Printf.sprintf "data%d" s.sid)
              ~sid:s.sid ~loc d.clauses
          in
          let inner = match body with Some b -> tr_stmt st b | None -> [] in
          pop_frame st;
          entry @ inner @ exit_
      | Some cond ->
          (* Conditional data region: its vars are not statically present,
             so enclosed kernels keep their (present-or-create) default
             copies and stay correct whichever way the condition goes; the
             region's own allocation and transfers run under the guard. *)
          push_frame st;
          let entry, exit_ =
            data_region_ops st ~label:(Printf.sprintf "data%d" s.sid)
              ~sid:s.sid ~loc d.clauses
          in
          pop_frame st;
          push_frame st;
          let inner = match body with Some b -> tr_stmt st b | None -> [] in
          pop_frame st;
          [ mk st ~loc ~sid:s.sid (Tif (cond, entry, [])) ]
          @ inner
          @ [ mk st ~loc ~sid:s.sid (Tif (cond, exit_, [])) ])
  | Acc_host_data -> (
      match body with Some b -> tr_stmt st b | None -> [])
  | Acc_update ->
      let n = st.update_count in
      st.update_count <- n + 1;
      let label = Printf.sprintf "update%d" n in
      let async =
        Acc.Query.async d |> Option.map (Option.value ~default:(Eint 0))
      in
      let guard ops =
        (* OpenACC if clause: the transfers run only when the condition
           holds at run time. *)
        match Acc.Query.if_clause d with
        | None | Some (Eint 1) -> ops
        | Some cond -> [ mk st ~loc ~sid:s.sid (Tif (cond, ops, [])) ]
      in
      let xfers dir subs =
        List.concat_map
          (fun sub ->
            if not (is_array st sub.sub_var) then []
            else
              List.map
                (fun root ->
                  track st root;
                  let site =
                    mk_site st ~loc ~sid:s.sid ~var:sub.sub_var
                      (Printf.sprintf "%s.%s(%s)" label
                         (match dir with H2D -> "device" | D2H -> "host")
                         root)
                  in
                  mk_xfer st ?lo:sub.sub_lo ?len:sub.sub_len ?async ~site ~dir
                    root)
                (clause_roots st sub.sub_var))
          subs
      in
      guard
        (xfers D2H (Acc.Query.update_host_subs d)
        @ xfers H2D (Acc.Query.update_device_subs d))
  | Acc_wait e -> [ mk st ~loc ~sid:s.sid (Twait e) ]
  | Acc_declare ->
      (* Device-resident for the remainder of the function: allocate and
         copy in here; the runtime frees at program end. *)
      push_frame st;
      let entry, _exit =
        data_region_ops st ~label:(Printf.sprintf "declare%d" s.sid)
          ~sid:s.sid ~loc d.clauses
      in
      let frame = List.hd st.denv in
      pop_frame st;
      List.iter (fun (root, kind) -> add_to_bottom st root kind) frame;
      entry
  | Acc_cache _ -> []
  | Acc_loop ->
      (* Orphaned loop directives are rejected by validation; inside compute
         regions they are consumed by outlining. *)
      (match body with Some b -> tr_stmt st b | None -> [])
  | Acc_parallel | Acc_kernels | Acc_parallel_loop | Acc_kernels_loop -> (
      match body with
      | None -> []
      | Some body_stmt ->
          let kernels =
            Outline.outline_region ~opts:st.opts ~alias:st.alias ~prog:st.prog
              ~fname:st.fname ~fresh:(fresh_kernel st) ~region_sid:s.sid d
              body_stmt
          in
          st.kernels <- List.rev_append kernels st.kernels;
          push_frame st;
          let entry, exit_ =
            data_region_ops st
              ~label:(Printf.sprintf "region%d" s.sid)
              ~sid:s.sid ~loc d.clauses
          in
          let launches =
            List.concat_map (fun k -> kernel_ops st ~sid:s.sid k) kernels
          in
          pop_frame st;
          let device_ops = entry @ launches @ exit_ in
          match Acc.Query.if_clause d with
          | None | Some (Eint 1) -> device_ops
          | Some cond ->
              (* if clause: fall back to sequential host execution when the
                 condition is false at run time. *)
              [ mk st ~loc ~sid:s.sid
                  (Tif (cond, device_ops, [ mk st ~loc ~sid:s.sid
                                              (Thost body_stmt) ])) ])

(* Default-scheme transfers around one kernel launch: every accessed array
   with no covering data clause is copied in before and back out after.
   Allocations are present-or-create: the runtime keeps the buffer resident
   (as CUDA's caching allocators do) and frees everything at program end, so
   coherence state survives across launches and the profiler can expose the
   full redundancy of the default scheme. *)
and kernel_ops st ~sid k =
  let loc = k.k_loc in
  Varset.iter (track st) (kernel_arrays k);
  let implicit =
    Varset.elements (Varset.filter (fun v -> not (present st v))
                       (kernel_arrays k))
  in
  let pre =
    List.concat_map
      (fun v ->
        [ mk st ~loc ~sid
            (Talloc
               (v, mk_site st ~loc ~sid ~var:v
                     (Printf.sprintf "%s.alloc(%s)" k.k_name v)));
          mk_xfer st ~dir:H2D
            ~site:
              (mk_site st ~loc ~sid ~var:v
                 (Printf.sprintf "%s.pcopyin(%s)" k.k_name v))
            v ])
      implicit
  in
  let post =
    List.map
      (fun v ->
        mk_xfer st ~dir:D2H
          ~site:
            (mk_site st ~loc ~sid ~var:v
               (Printf.sprintf "%s.pcopyout(%s)" k.k_name v))
          v)
      implicit
  in
  pre @ [ mk st ~loc ~sid (Tlaunch (k.k_id, k.k_async)) ] @ post

(** Translate [prog] (its [main]); validation and type checking must have
    succeeded first.  Directive-containing callees are inlined into [main]
    first (and the program re-typechecked when that happens). *)
let translate ?(opts = Options.default) env prog =
  let env, prog =
    if Inline.needs_expansion prog then begin
      let prog = Inline.expand prog in
      (Typecheck.check prog, prog)
    end
    else (env, prog)
  in
  let fname = "main" in
  let alias = Alias.compute env prog fname in
  let st =
    { opts; env; prog; alias; fname; kernels = []; next_kernel = 0;
      tracked = Varset.empty; denv = [ [] ]; update_count = 0; last_tid = 0;
      last_site = 0 }
  in
  let main = Ast.main_function prog in
  let body = tr_block st main.f_body in
  let kernels = Array.of_list (List.rev st.kernels) in
  { source = prog; env; alias; kernels; body; tracked = st.tracked;
    instrumented = false }
