(** CUDA-flavoured rendering of a translated program.

    OpenARC is a source-to-source translator whose output is a CUDA program;
    this module renders our {!Tprog} in that style so users can inspect what
    the compiler generated and trace runtime reports back to it (the
    traceability goal of the paper).  The output is documentation, not input
    to a further toolchain. *)

open Minic
open Tprog

let pp_typ ppf = function
  | Ast.Tvoid -> Fmt.string ppf "void"
  | Ast.Tint -> Fmt.string ppf "int"
  | Ast.Tfloat -> Fmt.string ppf "double"
  | Ast.Tarr (Ast.Tint, _) | Ast.Tptr Ast.Tint -> Fmt.string ppf "int *"
  | Ast.Tarr _ | Ast.Tptr _ -> Fmt.string ppf "double *"

let scalar_class_comment = function
  | Sc_private -> "private (per-thread register)"
  | Sc_firstprivate -> "firstprivate"
  | Sc_reduction op -> Fmt.str "reduction(%s)" (Pretty.redop_str op)
  | Sc_raced Race_active -> "UNSYNCHRONIZED SHARED (active race)"
  | Sc_raced Race_latent -> "unsynchronized shared (latent race)"

let pp_kernel env ppf (k : kernel) =
  let typ_of v =
    match Typecheck.var_type env "main" v with
    | Some t -> t
    | None -> Ast.Tfloat
  in
  (* The interface: its arrays, then the scalars passed by value — those
     neither classified nor induction variables. *)
  let arrays, scalars =
    List.partition
      (fun v ->
        match typ_of v with Ast.Tarr _ | Ast.Tptr _ -> true | _ -> false)
      (List.sort String.compare k.k_inputs)
  in
  let by_value v =
    not (List.mem_assoc v k.k_scalars || Analysis.Varset.mem v k.k_induction)
  in
  Fmt.pf ppf "__global__ void %s(" k.k_name;
  let args =
    List.map (fun v -> Fmt.str "%a%s" pp_typ (typ_of v) v) arrays
    @ List.map
        (fun v -> Fmt.str "%a %s" pp_typ (typ_of v) v)
        (List.filter by_value scalars)
  in
  Fmt.pf ppf "%s)@." (String.concat ", " args);
  Fmt.pf ppf "{@.";
  List.iter
    (fun (v, c) ->
      Fmt.pf ppf "  %a %s; /* %s */@." pp_typ (typ_of v) v
        (scalar_class_comment c))
    k.k_scalars;
  (match k.k_loop with
  | Some l ->
      Fmt.pf ppf
        "  int %s = (blockIdx.x * blockDim.x + threadIdx.x) /* from %a */;@."
        l.kl_var Pretty.pp_expr l.kl_init;
      Fmt.pf ppf "  if (%a) {@." Pretty.pp_expr l.kl_cond;
      Fmt.pf ppf "%s" (Fmt.str "%a" (Pretty.pp_block 2) k.k_body);
      Fmt.pf ppf "  }@."
  | None ->
      Fmt.pf ppf "  /* single-thread region */@.";
      Fmt.pf ppf "%s" (Fmt.str "%a" (Pretty.pp_block 1) k.k_body));
  Fmt.pf ppf "}@.@."

let rec pp_tstmt ind ppf s =
  let pad = String.make (ind * 2) ' ' in
  match s.tkind with
  | Thost st -> Fmt.pf ppf "%s" (Fmt.str "%a" (Pretty.pp_stmt ind) st)
  | Tif (c, b1, b2) ->
      Fmt.pf ppf "%sif (%a) {@.%a%s}" pad Pretty.pp_expr c
        (pp_tblock (ind + 1)) b1 pad;
      if b2 = [] then Fmt.pf ppf "@."
      else Fmt.pf ppf " else {@.%a%s}@." (pp_tblock (ind + 1)) b2 pad
  | Twhile (c, b) ->
      Fmt.pf ppf "%swhile (%a) {@.%a%s}@." pad Pretty.pp_expr c
        (pp_tblock (ind + 1)) b pad
  | Tfor (init, cond, step, b) ->
      let frag ppf = function
        | Some { Ast.skind = Ast.Sdecl (t, v, Some e); _ } ->
            Fmt.pf ppf "%a%s = %a" pp_typ t v Pretty.pp_expr e
        | Some { Ast.skind = Ast.Sassign (lv, e); _ } ->
            Fmt.pf ppf "%a = %a" Pretty.pp_lvalue lv Pretty.pp_expr e
        | _ -> ()
      in
      Fmt.pf ppf "%sfor (%a; %a; %a) {@.%a%s}@." pad frag init
        (Fmt.option Pretty.pp_expr) cond frag step (pp_tblock (ind + 1)) b pad
  | Tblock b -> Fmt.pf ppf "%s{@.%a%s}@." pad (pp_tblock (ind + 1)) b pad
  | Talloc (v, site) ->
      Fmt.pf ppf "%scudaMalloc(&d_%s, sizeof(%s)); /* %s */@." pad v v
        site.site_label
  | Tfree (v, site) ->
      Fmt.pf ppf "%scudaFree(d_%s); /* %s */@." pad v site.site_label
  | Txfer x ->
      let dir, fn =
        match x.x_dir with
        | H2D -> ("cudaMemcpyHostToDevice", "memcpyin")
        | D2H -> ("cudaMemcpyDeviceToHost", "memcpyout")
      in
      let range ppf () =
        match (x.x_lo, x.x_len) with
        | Some lo, Some len ->
            Fmt.pf ppf "[%a:%a]" Pretty.pp_expr lo Pretty.pp_expr len
        | _ -> ()
      in
      let async ppf () =
        match x.x_async with
        | Some e -> Fmt.pf ppf ", stream[%a]" Pretty.pp_expr e
        | None -> ()
      in
      Fmt.pf ppf "%s%s(%s%a, %s%a); /* %s */@." pad fn x.x_var range () dir
        async () x.x_site.site_label
  | Tlaunch (kid, async) ->
      let stream ppf () =
        match async with
        | Some e -> Fmt.pf ppf ", 0, stream[%a]" Pretty.pp_expr e
        | None -> ()
      in
      Fmt.pf ppf "%skernel%d<<<gangs, workers%a>>>(...);@." pad kid stream ()
  | Twait None -> Fmt.pf ppf "%scudaDeviceSynchronize();@." pad
  | Twait (Some e) ->
      Fmt.pf ppf "%scudaStreamSynchronize(stream[%a]);@." pad Pretty.pp_expr e
  | Tcheck c -> (
      match c with
      | Check_read (v, dev) ->
          Fmt.pf ppf "%sHI_check_read(%s, %s);@." pad v (device_name dev)
      | Check_write (v, dev) ->
          Fmt.pf ppf "%sHI_check_write(%s, %s);@." pad v (device_name dev)
      | Reset_status (v, dev, st) ->
          Fmt.pf ppf "%sHI_reset_status(%s, %s, %s);@." pad v
            (device_name dev) (status_name st))

and pp_tblock ind ppf b = List.iter (pp_tstmt ind ppf) b

(** Render the whole translated program. *)
let pp ppf (tp : t) =
  Fmt.pf ppf "/* OpenARC output (CUDA rendering) */@.@.";
  Array.iter (pp_kernel tp.env ppf) tp.kernels;
  Fmt.pf ppf "int main()@.{@.";
  pp_tblock 1 ppf tp.body;
  Fmt.pf ppf "}@."

let to_string tp = Fmt.str "%a" pp tp
