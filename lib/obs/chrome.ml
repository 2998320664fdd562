(** The one Chrome trace-event exporter: device lanes from each member's
    [Gpusim.Timeline], the host lane from an observability trace, counter
    lanes from the data-movement ledger, and the documents that frame
    them.  See chrome.mli. *)

module Timeline = Gpusim.Timeline

let us x = Pjson.fixed 3 (x *. 1e6)

let complete ~pid ~tid ~name ~cat ~ts ~dur =
  Pjson.Obj
    [ ("name", Pjson.Str name); ("cat", Pjson.Str cat);
      ("ph", Pjson.Str "X"); ("ts", us ts); ("dur", us dur);
      ("pid", Pjson.int pid); ("tid", Pjson.int tid) ]

let instant ~pid ~tid ~name ~cat ~ts =
  Pjson.Obj
    [ ("name", Pjson.Str name); ("cat", Pjson.Str cat);
      ("ph", Pjson.Str "i"); ("ts", us ts); ("s", Pjson.Str "t");
      ("pid", Pjson.int pid); ("tid", Pjson.int tid) ]

let counter ~tid ~name ~ts ~value =
  Pjson.Obj
    [ ("name", Pjson.Str name); ("ph", Pjson.Str "C"); ("ts", us ts);
      ("pid", Pjson.int 1); ("tid", Pjson.int tid);
      ("args", Pjson.Obj [ ("bytes", Pjson.int value) ]) ]

let process_name ~pid name =
  Pjson.Obj
    [ ("name", Pjson.Str "process_name"); ("ph", Pjson.Str "M");
      ("pid", Pjson.int pid); ("args", Pjson.Obj [ ("name", Pjson.Str name) ])
    ]

let timeline_events ~pid tl =
  List.map
    (fun (e : Timeline.event) ->
      complete ~pid
        ~tid:(match e.ev_stream with None -> 0 | Some q -> q + 1)
        ~name:e.ev_label ~cat:(Timeline.kind_name e.ev_kind) ~ts:e.ev_start
        ~dur:e.ev_duration)
    (Timeline.events tl)

(* Host-lane span kinds: simulated-time work the host clock sees.
   Session/Phase/Region spans are structural (they would span the whole
   lane), Device leafs belong to the device lanes. *)
let host_kind = function
  | Trace.Kernel | Trace.Transfer | Trace.Alloc | Trace.Free | Trace.Wait
  | Trace.Check | Trace.Merge ->
      true
  | Trace.Session | Trace.Phase | Trace.Region | Trace.Recovery
  | Trace.Device ->
      false

let host_lane tr =
  List.filter_map
    (fun (sp : Trace.span) ->
      let name = sp.sp_name and cat = Trace.kind_name sp.sp_kind in
      match sp.sp_end with
      | _ when sp.sp_dev <> None -> None
      | _ when sp.sp_kind = Trace.Recovery ->
          Some (instant ~pid:1 ~tid:0 ~name ~cat ~ts:sp.sp_start)
      | Some finish when host_kind sp.sp_kind ->
          Some
            (complete ~pid:1 ~tid:0 ~name ~cat ~ts:sp.sp_start
               ~dur:(finish -. sp.sp_start))
      | _ -> None)
    (Trace.spans tr)

let counter_lanes lg =
  List.map
    (fun (dev, time, allocated) ->
      counter ~tid:(dev + 1) ~name:"allocated" ~ts:time ~value:allocated)
    (Ledger.samples lg)

let device_lane d tl =
  let tid = d + 1 in
  List.map
    (fun (e : Timeline.event) ->
      let name = e.ev_label and cat = Timeline.kind_name e.ev_kind in
      match e.ev_kind with
      | Timeline.Ev_fault _ when e.ev_duration = 0.0 ->
          instant ~pid:1 ~tid ~name ~cat ~ts:e.ev_start
      | _ ->
          complete ~pid:1 ~tid ~name ~cat ~ts:e.ev_start ~dur:e.ev_duration)
    (Timeline.events tl)

let of_timeline tl = Pjson.Arr (timeline_events ~pid:1 tl)

let of_run ~trace ~ledger = function
  | [| tl |] -> of_timeline tl
  | timelines ->
      Pjson.Arr
        (Option.fold ~none:[] ~some:host_lane trace
        @ Option.fold ~none:[] ~some:counter_lanes ledger
        @ List.concat (List.mapi device_lane (Array.to_list timelines)))
