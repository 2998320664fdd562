(** The golden tiers: byte-stable BENCH_<tier>.json documents that hold
    the reproduction's measured behaviour.  A tier is one record; [write]
    regenerates its golden and [check] compares a regenerated document
    with the committed one byte for byte. *)

type tier = {
  name : string;
  document : Format.formatter -> Obs.Pjson.t;
      (** runs the sweep, prints its table, raises [Failure] when the
          tier's gate fails, and returns the full document *)
}

let tiers =
  Experiments.
    [ { name = "paper"; document = paper };
      { name = "profile"; document = profile };
      { name = "faults"; document = faults };
      { name = "symeq"; document = symeq };
      { name = "scale"; document = scale };
      { name = "imbalance"; document = imbalance };
      { name = "memtrace"; document = memtrace };
      { name = "saturate"; document = saturate } ]

let find name = List.find_opt (fun t -> t.name = name) tiers

let path t = "BENCH_" ^ t.name ^ ".json"

(* The tier's document, or [None] after reporting its failed sweep or
   gate as one line on stderr. *)
let run ppf t =
  match t.document ppf with
  | doc -> Some (Obs.Pjson.to_string doc)
  | exception Failure msg ->
      Fmt.epr "%s@." msg;
      None

let write ppf t =
  match run ppf t with
  | None -> false
  | Some doc ->
      Out_channel.with_open_bin (path t) (fun oc -> output_string oc doc);
      Fmt.pf ppf "%s written@." (path t);
      true

(* The first line (1-based) on which two documents differ, and that line
   of each. *)
let first_difference a b =
  let line = function l :: _ -> l | [] -> "<end of file>" in
  let rec go n = function
    | x :: xs, y :: ys when x = y -> go (n + 1) (xs, ys)
    | xs, ys -> (n, line xs, line ys)
  in
  go 1 (String.split_on_char '\n' a, String.split_on_char '\n' b)

(* [line] clipped to a window around byte [i]; a golden's lines can be
   long (a BENCH_saturate.json row holds a whole search step). *)
let clip line i =
  let lo = max 0 (i - 120) and hi = min (String.length line) (i + 60) in
  (if lo > 0 then "..." else "")
  ^ String.sub line lo (hi - lo)
  ^ if hi < String.length line then "..." else ""

let check ppf t =
  match In_channel.with_open_bin (path t) In_channel.input_all with
  | exception Sys_error _ ->
      Fmt.epr "%s is missing: generate it with 'bench/main.exe %s'@." (path t)
        t.name;
      false
  | committed -> (
      match run ppf t with
      | None -> false
      | Some doc when doc = committed ->
          Fmt.pf ppf "%s: byte-identical (%d bytes)@." (path t)
            (String.length doc);
          true
      | Some doc ->
          let n, a, b = first_difference committed doc in
          let rec common i =
            if i < String.length a && i < String.length b && a.[i] = b.[i]
            then common (i + 1)
            else i
          in
          let i = common 0 in
          Fmt.epr
            "%s: line %d differs from the regenerated document@.  \
             committed:   %s@.  regenerated: %s@.regenerate it with \
             'bench/main.exe %s' and review the diff@."
            (path t) n (clip a i) (clip b i) t.name;
          false)
