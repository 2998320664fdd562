(** A fleet of simulated devices behind one scheduler.

    Each member device owns its memory space, streams, timeline, metrics and
    fault gates; the set splits [parallel loop] iteration spaces across the
    alive members block- or cyclic-wise (the JACC splitting strategies).
    Device 0 is the {e primary}: its metrics object is the host clock.  The
    one-member set is the runtime's single-device case.

    A multi-member set partitions its fault plan by each rule's [#DEV]
    selector ({!Fault_plan.partition}); {!flush_events} folds every member's
    injected events back into the base plan so reports and reproduction
    recipes stay complete.  A one-member set arms its device with the
    caller's plan itself. *)

type schedule = Block | Cyclic

let schedule_name = function Block -> "block" | Cyclic -> "cyclic"

let schedule_of_string s =
  match String.lowercase_ascii (String.trim s) with
  | "block" -> Ok Block
  | "cyclic" -> Ok Cyclic
  | other ->
      Error (Fmt.str "unknown schedule '%s' (expected block|cyclic)" other)

type t = {
  devices : Device.t array;
  schedule : schedule;
  base_plan : Fault_plan.t option;
      (** the un-partitioned plan, kept for event reporting *)
}

let create ?(seed = 42) ?(trace = false) ?plan ?(schedule = Block) n =
  if n < 1 then invalid_arg "Device_set.create: need at least one device";
  let plans =
    match plan with
    | None -> Array.init n (fun _ -> None)
    | Some p when n = 1 -> [| Some p |]
    | Some p -> Array.map Option.some (Fault_plan.partition ~seed ~devices:n p)
  in
  let devices =
    Array.init n (fun id ->
        Device.create ~id
          ~seed:(if id = 0 then seed else seed + (7919 * id))
          ~trace ?plan:plans.(id) ())
  in
  { devices; schedule; base_plan = plan }

let size t = Array.length t.devices
let primary t = t.devices.(0)
let device t i = t.devices.(i)

let alive_ids t =
  Array.to_list t.devices
  |> List.filter Device.alive
  |> List.map (fun d -> d.Device.id)

let num_alive t =
  Array.fold_left (fun n d -> if Device.alive d then n + 1 else n) 0 t.devices

let all_lost t = num_alive t = 0

let first_alive t =
  let rec go i =
    if i >= Array.length t.devices then None
    else if Device.alive t.devices.(i) then Some t.devices.(i)
    else go (i + 1)
  in
  go 0

(** Fold every member's injected fault events (time-ordered) and loss state
    back into the base plan, so a partitioned multi-device run reports like
    a single-device one.  Idempotent; a no-op for one-member sets, whose
    base plan {e is} the device's plan. *)
let flush_events t =
  match t.base_plan with
  | None -> ()
  | Some base when Array.length t.devices <= 1 -> ignore base
  | Some base ->
      let evs =
        Array.fold_left
          (fun acc d -> acc @ Fault_plan.events d.Device.plan)
          [] t.devices
      in
      let evs =
        List.stable_sort
          (fun a b ->
            compare a.Fault_plan.e_time b.Fault_plan.e_time)
          evs
      in
      base.Fault_plan.events <- List.rev evs;
      if Array.exists (fun d -> not (Device.alive d)) t.devices then
        base.Fault_plan.lost <- true

(** Per-member accumulated time by ordinal: [(compute, transfer)]
    seconds from each member's own accumulator — compute is the
    synchronous kernel/wait category, transfer the PCIe category.  The
    device-side breakdown the scale bench reports per ordinal. *)
let member_times t =
  Array.map
    (fun d ->
      ( Metrics.time_of d.Device.metrics Metrics.Async_wait,
        Metrics.time_of d.Device.metrics Metrics.Mem_transfer ))
    t.devices

(* --------------------------- iteration split --------------------------- *)

(** Participant index owning iteration ordinal [i] of a [total]-iteration
    loop split across [parts] participants.  Block: contiguous
    ceil(total/parts) chunks; cyclic: round-robin by ordinal. *)
let owner schedule ~parts ~total i =
  if parts <= 1 then 0
  else
    match schedule with
    | Cyclic -> i mod parts
    | Block ->
        let chunk = (total + parts - 1) / parts in
        min (i / chunk) (parts - 1)

(** A shard: [count] ascending ordinals from [first], [stride] apart. *)
type shard = { first : int; stride : int; count : int }

(** The shard of a [total]-iteration loop owned by participant [part]. *)
let shard schedule ~parts ~total part =
  if parts <= 1 then { first = 0; stride = 1; count = total }
  else
    match schedule with
    | Cyclic ->
        let count =
          if part < total then ((total - part - 1) / parts) + 1 else 0
        in
        { first = part; stride = parts; count }
    | Block ->
        let chunk = (total + parts - 1) / parts in
        let first = part * chunk in
        { first; stride = 1; count = max 0 (min chunk (total - first)) }

let iter_shard f sh =
  for j = 0 to sh.count - 1 do
    f (sh.first + (j * sh.stride))
  done
