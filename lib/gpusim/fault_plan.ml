(** Seeded, deterministic device-fault plans.

    A plan is a list of rules, each arming one fault kind against an
    optional target (a buffer name for memory/transfer faults, a kernel
    name for launch faults) with a firing probability and a budget of
    injections.  The device consults the plan at every fault opportunity
    (allocation, transfer, launch, ECC scrub); all randomness comes from an
    explicit {!Rng.t} stream derived from the run seed, so a faulty run is
    exactly reproducible from [--seed] and the spec string.

    Spec grammar (comma-separated rules):
    {v
      RULE  := KIND [ ':' TARGET ] [ '@' PROB ] [ 'x' COUNT ] [ '#' DEV ]
      KIND  := bitflip | xfer-fail | xfer-partial | xfer-corrupt
             | launch-fail | launch-timeout | oom | device-lost
      PROB  := float in (0, 1]          (default 1.0)
      COUNT := positive int | '*'       (default 1; '*' = unlimited)
      DEV   := device ordinal >= 0      (default: device 0)
    v}
    Examples: ["xfer-fail x2"], ["bitflip:a@0.5x*"], ["device-lost#1"],
    ["oomx3,launch-fail:main_kernel0"].  The [#DEV] selector arms the rule
    against one member of a multi-device set ({!Device_set}); rules without
    a selector arm against device 0, matching the single-device runtime. *)

type kind =
  | Bit_flip  (** transient bit flip in a resident device buffer *)
  | Xfer_fail  (** host<->device transfer fails outright *)
  | Xfer_partial  (** transfer aborts after moving a prefix *)
  | Xfer_corrupt  (** transfer completes but silently corrupts data *)
  | Launch_fail  (** kernel launch error *)
  | Launch_timeout  (** kernel watchdog timeout *)
  | Oom  (** device allocation failure *)
  | Device_lost  (** whole device drops off the bus *)

let all_kinds =
  [ Bit_flip; Xfer_fail; Xfer_partial; Xfer_corrupt; Launch_fail;
    Launch_timeout; Oom; Device_lost ]

let kind_name = function
  | Bit_flip -> "bitflip"
  | Xfer_fail -> "xfer-fail"
  | Xfer_partial -> "xfer-partial"
  | Xfer_corrupt -> "xfer-corrupt"
  | Launch_fail -> "launch-fail"
  | Launch_timeout -> "launch-timeout"
  | Oom -> "oom"
  | Device_lost -> "device-lost"

let kind_of_name s =
  List.find_opt (fun k -> kind_name k = s) all_kinds

(** Is recovery a matter of trying the same operation again? *)
let transient = function
  | Bit_flip | Xfer_fail | Xfer_partial | Xfer_corrupt | Launch_fail
  | Launch_timeout | Oom -> true
  | Device_lost -> false

type rule = {
  r_kind : kind;
  r_target : string option;  (** buffer/kernel name; [None] = any *)
  r_prob : float;
  r_count : int;  (** max injections; negative = unlimited *)
  r_dev : int option;  (** device ordinal in a device set; [None] = dev 0 *)
  mutable r_fired : int;
}

type event = {
  e_kind : kind;
  e_target : string;  (** buffer or kernel the fault hit *)
  e_op : string;  (** operation underway, e.g. ["upload"] *)
  e_time : float;  (** simulated host clock at injection *)
}

type t = {
  rng : Rng.t;
  rules : rule list;
  mutable events : event list;  (** reversed *)
  mutable lost : bool;  (** a [Device_lost] fault has fired *)
}

let mk_rule ?target ?(prob = 1.0) ?(count = 1) ?dev r_kind =
  { r_kind; r_target = target; r_prob = prob; r_count = count; r_dev = dev;
    r_fired = 0 }

let create ?(seed = 42) rules =
  { rng = Rng.split (Rng.create seed); rules; events = []; lost = false }

let none () = create []

let is_empty t = t.rules = []

let events t = List.rev t.events

let injected t = List.length t.events

(** Deterministic site pick (bit index, element index, ...). *)
let rand_int t n = Rng.int t.rng n

(* ------------------------------ firing ------------------------------ *)

let rule_matches r k ~target =
  r.r_kind = k
  && (match r.r_target with
     | None | Some "*" -> true
     | Some t -> t = target)
  && (r.r_count < 0 || r.r_fired < r.r_count)

(** Should a fault of [k] hit [target] during [op] now?  Draws from the
    plan's RNG stream when a rule is armed; logs the event when it fires. *)
let fire t k ~target ~op ~time =
  match List.find_opt (fun r -> rule_matches r k ~target) t.rules with
  | None -> false
  | Some r ->
      let hit = r.r_prob >= 1.0 || Rng.float t.rng < r.r_prob in
      if hit then begin
        r.r_fired <- r.r_fired + 1;
        t.events <- { e_kind = k; e_target = target; e_op = op;
                      e_time = time } :: t.events;
        if k = Device_lost then t.lost <- true
      end;
      hit

(* ------------------------------ specs ------------------------------ *)

(** Largest device ordinal any rule names; [None] when every rule is
    device-0 implicit.  The CLI validates this against [--devices]. *)
let max_dev t =
  List.fold_left
    (fun acc r ->
      match (r.r_dev, acc) with
      | None, acc -> acc
      | Some d, None -> Some d
      | Some d, Some m -> Some (max d m))
    None t.rules

(** The device ordinal a rule is armed against (default 0). *)
let rule_dev r = match r.r_dev with None -> 0 | Some d -> d

(** Split a plan across [devices] members of a device set: device [d]
    receives the rules armed against it, with an RNG stream derived from
    [seed] and [d] (device 0 keeps the stream of [seed] itself).  The
    returned plans share nothing; each device's gates consult only its
    own. *)
let partition ~seed ~devices t =
  Array.init devices (fun d ->
      let rules =
        List.filter (fun r -> rule_dev r = d) t.rules
        |> List.map (fun r -> { r with r_fired = 0 })
      in
      create ~seed:(if d = 0 then seed else seed + (1000003 * d)) rules)

let spec_of_rule r =
  let target = match r.r_target with None -> "" | Some t -> ":" ^ t in
  let prob = if r.r_prob >= 1.0 then "" else Fmt.str "@%g" r.r_prob in
  let count =
    if r.r_count = 1 then ""
    else if r.r_count < 0 then "x*"
    else Fmt.str "x%d" r.r_count
  in
  let dev = match r.r_dev with None -> "" | Some d -> Fmt.str "#%d" d in
  kind_name r.r_kind ^ target ^ prob ^ count ^ dev

let to_spec t = String.concat "," (List.map spec_of_rule t.rules)

let parse_rule s =
  let s = String.trim s in
  if s = "" then Error "empty rule"
  else begin
    (* split the trailing #DEV, then xCOUNT, then @PROB, then :TARGET *)
    let s, dev =
      match String.rindex_opt s '#' with
      | Some i -> (
          let tail = String.sub s (i + 1) (String.length s - i - 1) in
          match int_of_string_opt tail with
          | Some d when d >= 0 -> (String.trim (String.sub s 0 i), Ok (Some d))
          | Some _ | None ->
              (s, Error (Fmt.str "device ordinal must be >= 0 in %S" s)))
      | None -> (s, Ok None)
    in
    let body, count =
      match String.rindex_opt s 'x' with
      | Some i when i > 0 -> (
          let tail = String.sub s (i + 1) (String.length s - i - 1) in
          if tail = "*" then (String.trim (String.sub s 0 i), Ok (-1))
          else
            match int_of_string_opt tail with
            | Some n when n > 0 -> (String.trim (String.sub s 0 i), Ok n)
            | Some _ -> (s, Error (Fmt.str "count must be positive in %S" s))
            | None -> (s, Ok 1) (* 'x' was part of a name *))
      | _ -> (s, Ok 1)
    in
    let body, prob =
      match String.index_opt body '@' with
      | None -> (body, Ok 1.0)
      | Some i -> (
          let tail =
            String.sub body (i + 1) (String.length body - i - 1)
          in
          match float_of_string_opt tail with
          | Some p when p > 0.0 && p <= 1.0 -> (String.sub body 0 i, Ok p)
          | Some _ | None ->
              (body, Error (Fmt.str "probability must be in (0,1] in %S" s)))
    in
    let body, target =
      match String.index_opt body ':' with
      | None -> (body, None)
      | Some i ->
          (String.sub body 0 i,
           Some (String.sub body (i + 1) (String.length body - i - 1)))
    in
    match (kind_of_name (String.trim body), prob, count, dev) with
    | _, Error e, _, _ | _, _, Error e, _ | _, _, _, Error e -> Error e
    | None, _, _, _ ->
        Error
          (Fmt.str "unknown fault kind %S (expected %s)" (String.trim body)
             (String.concat "|" (List.map kind_name all_kinds)))
    | Some k, Ok prob, Ok count, Ok dev ->
        Ok (mk_rule ?target ~prob ~count ?dev k)
  end

let of_spec ?seed spec =
  let parts =
    String.split_on_char ',' spec
    |> List.map String.trim
    |> List.filter (fun s -> s <> "")
  in
  if parts = [] then Error "empty fault spec"
  else
    let rec go acc = function
      | [] -> Ok (create ?seed (List.rev acc))
      | p :: rest -> (
          match parse_rule p with
          | Ok r -> go (r :: acc) rest
          | Error e -> Error e)
    in
    go [] parts

let pp_event ppf e =
  Fmt.pf ppf "%.6fs %s on %s during %s" e.e_time (kind_name e.e_kind)
    e.e_target e.e_op
