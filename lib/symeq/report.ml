(** Canonical JSON for symbolic-equivalence verdicts.  See report.mli. *)

module P = Obs.Pjson

type t = { program : string; result : Engine.t }

let schema = "openarc.obs.symeq"
let version = 1

(* ----------------------------- emission ------------------------------ *)

let strs l = P.Arr (List.map (fun s -> P.Str s) l)

let kernel_json (k : Engine.kernel_verdict) =
  P.Obj
    ([ ("kernel", P.Str k.kv_name);
       ("verdict", P.Str (Engine.verdict_name k.kv_verdict)) ]
    @
    match k.kv_verdict with
    | Engine.Proved c ->
        [ ( "objects",
            P.Arr
              (List.map
                 (fun (name, form) ->
                   P.Obj [ ("name", P.Str name); ("form", P.Str form) ])
                 c.Engine.c_objects) );
          ("hypotheses", strs c.Engine.c_hypotheses);
          ("notes", strs c.Engine.c_notes) ]
    | Engine.Disproved r ->
        [ ("object", P.Str r.Engine.r_object);
          ("device", P.Str r.Engine.r_device);
          ("sequential", P.Str r.Engine.r_sequential);
          ("index", P.opt P.int r.Engine.r_index);
          ("witness", P.Str r.Engine.r_witness) ]
    | Engine.Unknown why -> [ ("reason", P.Str why) ])

let json t =
  let r = t.result in
  P.Obj
    [ ("schema", P.Str schema); ("version", P.int version);
      ("program", P.Str t.program);
      ("kernels", P.Arr (List.map kernel_json r.Engine.kernels));
      ( "coverage",
        P.Obj
          [ ("kernels", P.int (List.length r.Engine.kernels));
            ("proved", P.int r.Engine.proved);
            ("disproved", P.int r.Engine.disproved);
            ("unknown", P.int r.Engine.unknown) ] ) ]

let to_json t = P.to_string (json t)

(* ----------------------------- validation ---------------------------- *)

exception Invalid of string

let need what = function
  | Some v -> v
  | None -> raise (Invalid ("missing or ill-typed " ^ what))

let get_str name j = need name (Option.bind (P.member name j) P.str)
let get_arr name j = need name (Option.bind (P.member name j) P.arr)
let int_of name v =
  try P.int_exn v with P.Bad m -> raise (Invalid (name ^ ": " ^ m))

let get_int name j = int_of name (need name (P.member name j))

let str_list name j = List.map (fun v -> need name (P.str v)) (get_arr name j)

let kernel_of_json j =
  let name = get_str "kernel" j in
  let verdict =
    match get_str "verdict" j with
    | "proved" ->
        Engine.Proved
          { Engine.c_objects =
              List.map
                (fun o -> (get_str "name" o, get_str "form" o))
                (get_arr "objects" j);
            c_hypotheses = str_list "hypotheses" j;
            c_notes = str_list "notes" j }
    | "disproved" ->
        Engine.Disproved
          { Engine.r_object = get_str "object" j;
            r_device = get_str "device" j;
            r_sequential = get_str "sequential" j;
            r_index =
              (match P.member "index" j with
              | Some P.Null -> None
              | Some v -> Some (int_of "index" v)
              | None -> raise (Invalid "missing index"));
            r_witness = get_str "witness" j }
    | "unknown" -> Engine.Unknown (get_str "reason" j)
    | v -> raise (Invalid ("unknown verdict tag '" ^ v ^ "'"))
  in
  { Engine.kv_name = name; kv_verdict = verdict }

let of_json s =
  match P.parse_result s with
  | Error e -> Error e
  | Ok j -> (
      try
        (match P.member "schema" j with
        | Some (P.Str tag) when tag = schema -> ()
        | Some (P.Str tag) ->
            raise (Invalid (Fmt.str "wrong schema tag %S (want %S)" tag schema))
        | _ -> raise (Invalid "missing schema tag"));
        if get_int "version" j <> version then
          raise (Invalid "unsupported schema version");
        let kernels = List.map kernel_of_json (get_arr "kernels" j) in
        let cov = need "coverage" (P.member "coverage" j) in
        let count p =
          List.length
            (List.filter (fun k -> p k.Engine.kv_verdict) kernels)
        in
        let result =
          { Engine.kernels;
            proved = count (function Engine.Proved _ -> true | _ -> false);
            disproved =
              count (function Engine.Disproved _ -> true | _ -> false);
            unknown = count (function Engine.Unknown _ -> true | _ -> false) }
        in
        (* The recorded coverage must agree with the verdict list. *)
        if
          get_int "kernels" cov <> List.length kernels
          || get_int "proved" cov <> result.Engine.proved
          || get_int "disproved" cov <> result.Engine.disproved
          || get_int "unknown" cov <> result.Engine.unknown
        then raise (Invalid "coverage counters disagree with verdict list");
        Ok { program = get_str "program" j; result }
      with Invalid why -> Error why)

let pp ppf t =
  Fmt.pf ppf "@[<v>symbolic equivalence — %s@,%a@]" t.program Engine.pp
    t.result
