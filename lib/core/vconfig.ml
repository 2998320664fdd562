(** Kernel-verification configuration (§III-A, §III-C).

    Mirrors OpenARC's [verificationOptions]: the user selects which kernels
    to verify (optionally complementing the selection), bounds the accepted
    floating-point error, skips comparisons of tiny values
    ([minValueToCheck]), and can register application-knowledge hooks —
    per-variable value bounds that suppress false positives, and debug
    assertions run after each kernel (checksums etc.). *)

type assertion = {
  a_name : string;
  a_check : Gpusim.Buf.t -> bool;  (** applied to a GPU-produced array *)
  a_var : string;
}

type bound = {
  b_var : string;
  b_min : float;
  b_max : float;  (** differences within [b_min, b_max] are acceptable *)
}

type t = {
  kernels : string list;  (** empty = all kernels *)
  complement : bool;
      (** when true, verify every kernel {e except} those listed — the
          paper's [complement=0/1] option *)
  error_margin : float;  (** relative error tolerance of result comparison *)
  min_value : float;  (** paper's [minValueToCheck] *)
  bounds : bound list;  (** §III-C application-knowledge value bounds *)
  assertions : assertion list;  (** §III-C debug-assertion API *)
}

let default =
  { kernels = []; complement = false; error_margin = 1e-9; min_value = 0.0;
    bounds = []; assertions = [] }

(** Does the configuration select kernel [name]? *)
let selects t name =
  match (t.kernels, t.complement) with
  | [], false -> true
  | [], true -> true
  | ks, false -> List.mem name ks
  | ks, true -> not (List.mem name ks)

let bound_for t var =
  List.find_map
    (fun b -> if b.b_var = var then Some (b.b_min, b.b_max) else None)
    t.bounds

(** Parse a "verificationOptions=complement=0,kernels=main_kernel0"
    style string, as the paper's examples show.  Malformed specs raise
    [Failure] naming the option and the offending part. *)
let of_string s =
  let fail fmt = Fmt.kstr failwith ("invalid verification options: " ^^ fmt) in
  let s =
    match String.index_opt s '=' with
    | Some i when String.sub s 0 i = "verificationOptions" ->
        String.sub s (i + 1) (String.length s - i - 1)
    | _ -> s
  in
  let number key value =
    match float_of_string_opt value with
    | Some x when Float.is_finite x -> x
    | _ -> fail "%s=%s is not a finite number" key value
  in
  (* Split on commas; once "kernels=" has appeared, bare words are more
     kernel names (kernel names are themselves comma-separated). *)
  let rec consume t ~listing = function
    | [] -> t
    | "" :: rest -> consume t ~listing rest
    | p :: rest -> (
        match String.index_opt p '=' with
        | None when listing ->
            consume { t with kernels = t.kernels @ [ p ] } ~listing rest
        | None -> fail "'%s' is not a key=value option" p
        | Some i ->
            let key = String.sub p 0 i in
            let value = String.sub p (i + 1) (String.length p - i - 1) in
            let t, listing =
              match key with
              | "complement" -> (
                  match value with
                  | "0" -> ({ t with complement = false }, listing)
                  | "1" -> ({ t with complement = true }, listing)
                  | _ -> fail "complement=%s is not 0 or 1" value)
              | "kernels" -> ({ t with kernels = t.kernels @ [ value ] }, true)
              | "errorMargin" ->
                  let m = number key value in
                  if m < 0.0 then fail "errorMargin=%s is negative" value;
                  ({ t with error_margin = m }, listing)
              | "minValueToCheck" ->
                  ({ t with min_value = number key value }, listing)
              | _ -> fail "unknown option '%s' in '%s'" key p
            in
            consume t ~listing rest)
  in
  consume default ~listing:false (String.split_on_char ',' s)

(** Read the configuration from the [OPENARC_VERIFICATION] environment
    variable, the paper's "or using environment variables" interface.
    Returns {!default} when unset. *)
let from_env () =
  match Sys.getenv_opt "OPENARC_VERIFICATION" with
  | None | Some "" -> default
  | Some s -> (
      try of_string s
      with Failure m -> Fmt.failwith "OPENARC_VERIFICATION: %s" m)
