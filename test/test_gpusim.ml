(* GPU-simulator tests: buffers, cost model, device memory, streams,
   metrics; QCheck properties on buffer comparison. *)

let feq = Alcotest.float 1e-9

(* ------------------------------ Buf ------------------------------ *)

let test_buf_basics () =
  let b = Gpusim.Buf.create_float 4 in
  Gpusim.Buf.set_float b 0 1.5;
  Alcotest.(check (float 0.)) "get" 1.5 (Gpusim.Buf.get_float b 0);
  Alcotest.(check int) "bytes float" 32 (Gpusim.Buf.bytes b);
  let i = Gpusim.Buf.create_int 4 in
  Alcotest.(check int) "bytes int" 16 (Gpusim.Buf.bytes i);
  Gpusim.Buf.set_int i 2 7;
  Alcotest.(check int) "int get" 7 (Gpusim.Buf.get_int i 2);
  (* int<->float views *)
  Alcotest.(check (float 0.)) "int as float" 7.0 (Gpusim.Buf.get_float i 2)

let test_buf_blit () =
  let src = Gpusim.Buf.Fbuf [| 1.; 2.; 3.; 4. |] in
  let dst = Gpusim.Buf.create_float 4 in
  Gpusim.Buf.blit ~src ~dst;
  Alcotest.(check (float 0.)) "blit all" 3. (Gpusim.Buf.get_float dst 2);
  let dst2 = Gpusim.Buf.create_float 4 in
  Gpusim.Buf.blit_range ~src ~dst:dst2 ~lo:1 ~len:2;
  Alcotest.(check (float 0.)) "range inside" 2. (Gpusim.Buf.get_float dst2 1);
  Alcotest.(check (float 0.)) "range outside" 0. (Gpusim.Buf.get_float dst2 3);
  Alcotest.check_raises "shape mismatch"
    (Invalid_argument "Buf.blit: shape mismatch")
    (fun () -> Gpusim.Buf.blit ~src ~dst:(Gpusim.Buf.create_float 3))

(* [Buf.equal] compares bits: a NaN matches the same NaN, and -0.0 and 0.0
   differ. *)
let test_buf_equal () =
  let f xs = Gpusim.Buf.Fbuf xs in
  List.iter
    (fun (what, a, b, expected) ->
      Alcotest.(check bool) what expected (Gpusim.Buf.equal a b))
    [ ("same floats", f [| 1.0; 2.5 |], f [| 1.0; 2.5 |], true);
      ("NaN with the same NaN", f [| sqrt (-2.0) |], f [| sqrt (-2.0) |],
       true);
      ("-0.0 against 0.0", f [| -0.0 |], f [| 0.0 |], false);
      ("different lengths", f [| 1.0 |], f [| 1.0; 1.0 |], false);
      ("ints", Gpusim.Buf.Ibuf [| 1; 2 |], Gpusim.Buf.Ibuf [| 1; 2 |], true);
      ("float against int", f [| 1.0 |], Gpusim.Buf.Ibuf [| 1 |], false) ]

let test_buf_compare () =
  let reference = Gpusim.Buf.Fbuf [| 1.0; 2.0; 3.0 |] in
  let same = Gpusim.Buf.Fbuf [| 1.0; 2.0 +. 1e-12; 3.0 |] in
  let off = Gpusim.Buf.Fbuf [| 1.0; 2.5; 3.0 |] in
  let _, n1 = Gpusim.Buf.compare ~margin:1e-9 ~reference same in
  Alcotest.(check int) "within margin" 0 n1;
  let idx, n2 = Gpusim.Buf.compare ~margin:1e-9 ~reference off in
  Alcotest.(check int) "one mismatch" 1 n2;
  Alcotest.(check (list int)) "index" [ 1 ] idx;
  (* minValueToCheck skips small reference entries *)
  let tiny_ref = Gpusim.Buf.Fbuf [| 1e-40; 5.0 |] in
  let tiny_off = Gpusim.Buf.Fbuf [| 1.0; 5.0 |] in
  let _, n3 =
    Gpusim.Buf.compare ~min_value:1e-32 ~margin:1e-9 ~reference:tiny_ref
      tiny_off
  in
  Alcotest.(check int) "minValueToCheck skips" 0 n3;
  (* non-finite values: equal values match, any other pair holding a NaN
     or an infinity does not, at every margin *)
  let rows =
    [ ("NaN with NaN", 1e-6, Float.nan, Float.nan, 0);
      ("NaN result against a finite reference", 1e-6, 1.0, Float.nan, 1);
      ("finite result against a NaN reference", 1e-6, Float.nan, 1.0, 1);
      ("+inf with +inf", 0.0, Float.infinity, Float.infinity, 0);
      ("-inf against +inf", 1e-6, Float.infinity, Float.neg_infinity, 1);
      ("finite result against +inf, margin 0", 0.0, Float.infinity, 1.0, 1);
      ("finite result against +inf, margin 1e-6", 1e-6, Float.infinity, 1.0,
       1);
      ("+inf result against a finite reference, margin 0", 0.0, 1.0,
       Float.infinity, 1);
      ("+inf result against a finite reference, margin 1e-6", 1e-6, 1.0,
       Float.infinity, 1);
      ("+0.0 with -0.0", 0.0, 0.0, -0.0, 0) ]
  in
  List.iter
    (fun (what, margin, r, v, expected) ->
      let _, n =
        Gpusim.Buf.compare ~margin ~reference:(Gpusim.Buf.Fbuf [| r |])
          (Gpusim.Buf.Fbuf [| v |])
      in
      Alcotest.(check int) what expected n)
    rows;
  (* minValueToCheck skips only a finite reference below it *)
  let below ?(min_value = 1e-32) r v =
    snd
      (Gpusim.Buf.compare ~min_value ~margin:1e-9
         ~reference:(Gpusim.Buf.Fbuf [| r |]) (Gpusim.Buf.Fbuf [| v |]))
  in
  Alcotest.(check int) "reference below min_value" 0 (below 1e-40 7.0);
  Alcotest.(check int) "NaN against a reference below min_value" 1
    (below 1e-40 Float.nan);
  Alcotest.(check int) "finite reference below an infinite min_value" 0
    (below ~min_value:Float.infinity 1e300 0.0);
  Alcotest.(check int) "+inf reference is never skipped" 1
    (below ~min_value:Float.infinity Float.infinity 1.0);
  (* the §III-C bound accepts a value inside it, whatever its reference *)
  let _, inside =
    Gpusim.Buf.compare ~bound:(0.0, 3.0) ~margin:1e-9 ~reference off
  in
  Alcotest.(check int) "value inside the bound" 0 inside;
  let idx, outside =
    Gpusim.Buf.compare ~bound:(0.0, 2.0) ~margin:1e-9 ~reference off
  in
  Alcotest.(check int) "value outside the bound" 1 outside;
  Alcotest.(check (list int)) "outside index" [ 1 ] idx

let buf_compare_reflexive =
  QCheck.Test.make ~count:200 ~name:"Buf.compare x x = 0"
    QCheck.(array_of_size (QCheck.Gen.int_range 1 20) (float_range (-1e6) 1e6))
    (fun a ->
      let b = Gpusim.Buf.Fbuf a in
      let _, n = Gpusim.Buf.compare ~margin:0.0 ~reference:b (Gpusim.Buf.copy b) in
      n = 0)

let buf_max_diff_symmetric =
  QCheck.Test.make ~count:200 ~name:"max_abs_diff symmetric"
    QCheck.(pair
              (array_of_size (QCheck.Gen.return 8) (float_range (-100.) 100.))
              (array_of_size (QCheck.Gen.return 8) (float_range (-100.) 100.)))
    (fun (a, b) ->
      let ba = Gpusim.Buf.Fbuf a and bb = Gpusim.Buf.Fbuf b in
      Float.equal (Gpusim.Buf.max_abs_diff ba bb)
        (Gpusim.Buf.max_abs_diff bb ba))

(* --------------------------- cost model --------------------------- *)

let test_costmodel () =
  let cm = Gpusim.Costmodel.default in
  let t_small = Gpusim.Costmodel.transfer_time cm ~bytes:8 ~noise:0.0 in
  let t_big = Gpusim.Costmodel.transfer_time cm ~bytes:8_000_000 ~noise:0.0 in
  Alcotest.(check bool) "latency floor" true (t_small >= cm.pcie_latency);
  Alcotest.(check bool) "bandwidth term" true (t_big > 100. *. t_small);
  (* parallel width caps speedup *)
  let t1 = Gpusim.Costmodel.kernel_time cm ~iterations:1 ~ops_per_iter:100 in
  let t512 =
    Gpusim.Costmodel.kernel_time cm ~iterations:512 ~ops_per_iter:100
  in
  let t1024 =
    Gpusim.Costmodel.kernel_time cm ~iterations:1024 ~ops_per_iter:100
  in
  Alcotest.check feq "512 lanes hide iterations" t1 t512;
  Alcotest.(check bool) "beyond width serializes" true (t1024 > t512);
  Alcotest.(check bool) "jitter bounded" true
    (let tj = Gpusim.Costmodel.transfer_time cm ~bytes:8 ~noise:1.0 in
     tj <= t_small *. (1. +. cm.pcie_jitter) +. 1e-15)

(* ----------------------------- device ----------------------------- *)

let test_device_memory () =
  let dev = Gpusim.Device.create () in
  let host = Gpusim.Buf.Fbuf [| 1.; 2.; 3. |] in
  Gpusim.Device.alloc dev "a" ~like:host;
  Alcotest.(check bool) "allocated" true (Gpusim.Device.is_allocated dev "a");
  Gpusim.Device.upload dev "a" ~host ();
  let back = Gpusim.Buf.create_float 3 in
  Gpusim.Device.download dev "a" ~host:back ();
  Alcotest.(check (float 0.)) "round trip" 2. (Gpusim.Buf.get_float back 1);
  Alcotest.check_raises "double alloc"
    (Gpusim.Device.Device_error "device buffer 'a' already allocated")
    (fun () -> Gpusim.Device.alloc dev "a" ~like:host);
  Gpusim.Device.free dev "a";
  Alcotest.(check bool) "freed" false (Gpusim.Device.is_allocated dev "a");
  Alcotest.check_raises "use after free"
    (Gpusim.Device.Device_error "device buffer 'a' is not allocated")
    (fun () -> ignore (Gpusim.Device.buffer dev "a"))

let test_device_accounting () =
  let dev = Gpusim.Device.create () in
  let m = dev.Gpusim.Device.metrics in
  let host = Gpusim.Buf.create_float 1000 in
  Gpusim.Device.alloc dev "a" ~like:host;
  Gpusim.Device.upload dev "a" ~host ();
  Gpusim.Device.download dev "a" ~host ();
  Alcotest.(check int) "h2d bytes" 8000 m.Gpusim.Metrics.bytes_h2d;
  Alcotest.(check int) "d2h bytes" 8000 m.Gpusim.Metrics.bytes_d2h;
  Alcotest.(check int) "transfer count" 1 m.Gpusim.Metrics.transfers_h2d;
  Alcotest.(check bool) "transfer time charged" true
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Mem_transfer > 0.);
  (* subarray transfer moves fewer bytes *)
  Gpusim.Device.upload dev "a" ~host ~range:(0, 10) ();
  Alcotest.(check int) "partial bytes" (8000 + 80) m.Gpusim.Metrics.bytes_h2d

let test_device_streams () =
  let dev = Gpusim.Device.create () in
  let m = dev.Gpusim.Device.metrics in
  let host = Gpusim.Buf.create_float 100000 in
  Gpusim.Device.alloc dev "a" ~like:host;
  (* async upload: host barely charged until the wait *)
  Gpusim.Device.upload dev "a" ~host ~async:1 ();
  let before_wait = Gpusim.Metrics.time_of m Gpusim.Metrics.Mem_transfer in
  Gpusim.Device.wait dev (Some 1);
  let waited = Gpusim.Metrics.time_of m Gpusim.Metrics.Async_wait in
  Alcotest.(check bool) "submit is cheap" true (before_wait < 2e-6);
  Alcotest.(check bool) "wait pays the transfer" true (waited > 50e-6);
  (* waiting again is free *)
  Gpusim.Device.wait dev (Some 1);
  Alcotest.check feq "idempotent wait" waited
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Async_wait)

(* --------------------------- chrome trace -------------------------- *)

(* A small traced device workload touching the host track (tid 0) and an
   async stream track (tid 2 = stream 1 + 1). *)
let traced_device () =
  let dev = Gpusim.Device.create ~trace:true () in
  let host = Gpusim.Buf.create_float 1000 in
  Gpusim.Device.alloc dev "a" ~like:host;
  Gpusim.Device.upload dev "a" ~host ();
  Gpusim.Device.upload dev "a" ~host ~async:1 ();
  Gpusim.Device.wait dev (Some 1);
  Gpusim.Device.download dev "a" ~host ();
  dev

let test_chrome_json_parses () =
  let dev = traced_device () in
  let json =
    Obs.Pjson.to_string (Obs.Chrome.of_timeline dev.Gpusim.Device.timeline)
  in
  let v = Obs.Pjson.parse json in
  let events = Obs.Pjson.arr_exn v in
  Alcotest.(check bool) "several events" true (List.length events >= 4);
  List.iter
    (fun e ->
      Alcotest.(check (option string))
        "complete-event phase" (Some "X")
        (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "ph" e));
      List.iter
        (fun field ->
          Alcotest.(check bool) (field ^ " present") true
            (Obs.Pjson.member field e <> None))
        [ "name"; "cat"; "ts"; "dur"; "pid"; "tid" ])
    events

let test_chrome_tids () =
  let dev = traced_device () in
  let tl = dev.Gpusim.Device.timeline in
  let events = Obs.Pjson.arr_exn (Obs.Pjson.parse
                                     (Obs.Pjson.to_string
                                        (Obs.Chrome.of_timeline tl))) in
  let tid_of e = int_of_float (Obs.Pjson.num_exn
                                 (Option.get (Obs.Pjson.member "tid" e))) in
  let tids = List.sort_uniq compare (List.map tid_of events) in
  (* host track is tid 0; stream q maps stably to tid q+1 *)
  Alcotest.(check bool) "host track present" true (List.mem 0 tids);
  Alcotest.(check bool) "stream 1 is tid 2" true (List.mem 2 tids);
  Alcotest.(check bool) "no tid 1 without stream 0" true
    (List.for_all
       (fun ev ->
         match ev.Gpusim.Timeline.ev_stream with
         | None -> true
         | Some q -> List.mem (q + 1) tids)
       (Gpusim.Timeline.events tl));
  (* per-tid (not global) start times are monotone: async submissions may
     interleave across tracks, but each track is ordered *)
  let ts_of e = Obs.Pjson.num_exn (Option.get (Obs.Pjson.member "ts" e)) in
  List.iter
    (fun tid ->
      let track = List.filter (fun e -> tid_of e = tid) events in
      let rec mono = function
        | a :: (b :: _ as rest) ->
            Alcotest.(check bool)
              (Fmt.str "tid %d monotone" tid)
              true
              (ts_of a <= ts_of b);
            mono rest
        | _ -> ()
      in
      mono track)
    tids

let test_chrome_process_name () =
  let m =
    Obs.Pjson.to_line (Obs.Chrome.process_name ~pid:3 "jacobi/bitflip/retry")
  in
  let v = Obs.Pjson.parse m in
  Alcotest.(check (option string)) "metadata phase" (Some "M")
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "ph" v));
  Alcotest.(check (option string)) "name" (Some "process_name")
    (Option.map Obs.Pjson.str_exn (Obs.Pjson.member "name" v))

let test_metrics_pp_golden () =
  let m = Gpusim.Metrics.create () in
  Gpusim.Metrics.charge m Gpusim.Metrics.Cpu_time 1.0;
  Gpusim.Metrics.charge m Gpusim.Metrics.Mem_transfer 0.25;
  m.Gpusim.Metrics.bytes_h2d <- 1024;
  m.Gpusim.Metrics.transfers_h2d <- 2;
  m.Gpusim.Metrics.kernel_launches <- 3;
  let expected =
    "total 1.250000 s (1024 B h2d in 2 xfers, 0 B d2h in 0 xfers, \
     3 launches, 0 checks)\n\
     \  CPU Time       1.000000 s\n\
     \  Mem Transfer   0.250000 s"
  in
  Alcotest.(check string) "pp golden" expected
    (Fmt.str "%a" Gpusim.Metrics.pp m)

(* The device's one observer sees every charge in order, and a traced
   device reports each operation's events in a fixed order. *)
let test_metrics_charge_hook () =
  let d = Gpusim.Device.create ~trace:true () in
  let seen = ref [] in
  Gpusim.Device.observe d (fun ev -> seen := ev :: !seen);
  let observed f =
    seen := [];
    f ();
    List.rev !seen
  in
  let charges =
    observed (fun () ->
        Gpusim.Device.charge d Gpusim.Metrics.Gpu_alloc 0.5;
        Gpusim.Device.charge d Gpusim.Metrics.Cpu_time 0.25)
  in
  Alcotest.(check (list (pair string (float 0.))))
    "hook sees every charge in order"
    [ ("GPU Mem Alloc", 0.5); ("CPU Time", 0.25) ]
    (List.filter_map
       (function
         | Gpusim.Device.Charge (c, dt) ->
             Some (Gpusim.Metrics.category_name c, dt)
         | _ -> None)
       charges);
  let tag = function
    | Gpusim.Device.Charge _ -> "Charge"
    | Gpusim.Device.Timeline _ -> "Timeline"
    | Gpusim.Device.Xfer _ -> "Xfer"
    | Gpusim.Device.Mem _ -> "Mem"
  in
  let order what expected f =
    Alcotest.(check (list string)) (what ^ " event order") expected
      (List.map tag (observed f))
  in
  let host = Gpusim.Buf.create_float 16 in
  order "alloc" [ "Mem"; "Timeline"; "Charge" ] (fun () ->
      Gpusim.Device.alloc d "a" ~like:host);
  order "upload" [ "Charge"; "Timeline"; "Xfer" ] (fun () ->
      Gpusim.Device.upload d "a" ~host ());
  order "launch" [ "Charge"; "Timeline" ] (fun () ->
      Gpusim.Device.launch d ~iterations:16 ~ops_per_iter:4 ());
  order "download" [ "Charge"; "Timeline"; "Xfer" ] (fun () ->
      Gpusim.Device.download d "a" ~host ());
  order "free" [ "Mem"; "Timeline"; "Charge" ] (fun () ->
      Gpusim.Device.free d "a")

let test_metrics () =
  let m = Gpusim.Metrics.create () in
  Gpusim.Metrics.charge m Gpusim.Metrics.Cpu_time 1.0;
  Gpusim.Metrics.charge m Gpusim.Metrics.Cpu_time 0.5;
  Gpusim.Metrics.charge m Gpusim.Metrics.Gpu_alloc 0.25;
  Alcotest.check feq "accumulates" 1.5
    (Gpusim.Metrics.time_of m Gpusim.Metrics.Cpu_time);
  Alcotest.check feq "total" 1.75 (Gpusim.Metrics.total_time m);
  Alcotest.check feq "host clock advances" 1.75 m.Gpusim.Metrics.host_clock;
  Gpusim.Metrics.reset m;
  Alcotest.check feq "reset" 0.0 (Gpusim.Metrics.total_time m)

(* --------------------------- Device_set --------------------------- *)

(* Block and cyclic splits must partition the iteration space: every
   ordinal has exactly one owner in range, and each part's shard lists
   exactly the ordinals it owns, ascending (an empty space included). *)
let split_partitions =
  let open QCheck in
  Test.make ~count:300 ~name:"Device_set split partitions the space"
    (triple (int_range 0 100) (int_range 1 8) bool)
    (fun (total, parts, cyclic) ->
      let schedule =
        if cyclic then Gpusim.Device_set.Cyclic else Gpusim.Device_set.Block
      in
      let owned = Array.make parts [] in
      for i = total - 1 downto 0 do
        let o = Gpusim.Device_set.owner schedule ~parts ~total i in
        if o < 0 || o >= parts then
          Test.fail_reportf "owner %d out of range for i=%d" o i;
        owned.(o) <- i :: owned.(o)
      done;
      for p = 0 to parts - 1 do
        let shard = ref [] in
        Gpusim.Device_set.iter_shard
          (fun i -> shard := i :: !shard)
          (Gpusim.Device_set.shard schedule ~parts ~total p);
        let shard = List.rev !shard in
        if shard <> owned.(p) then
          Test.fail_reportf "part %d's shard [%s] <> its owned ordinals [%s]"
            p
            (String.concat ";" (List.map string_of_int shard))
            (String.concat ";" (List.map string_of_int owned.(p)))
      done;
      true)

let test_device_set_schedules () =
  let owner s i = Gpusim.Device_set.owner s ~parts:3 ~total:10 i in
  (* block: contiguous ceil(10/3)=4-wide chunks *)
  Alcotest.(check (list int)) "block owners"
    [ 0; 0; 0; 0; 1; 1; 1; 1; 2; 2 ]
    (List.init 10 (owner Gpusim.Device_set.Block));
  (* cyclic: round-robin by ordinal *)
  Alcotest.(check (list int)) "cyclic owners"
    [ 0; 1; 2; 0; 1; 2; 0; 1; 2; 0 ]
    (List.init 10 (owner Gpusim.Device_set.Cyclic));
  (* one participant owns everything regardless of schedule *)
  Alcotest.(check int) "solo owner" 0
    (Gpusim.Device_set.owner Gpusim.Device_set.Cyclic ~parts:1 ~total:10 7);
  Alcotest.(check int) "solo shard" 10
    (Gpusim.Device_set.shard Gpusim.Device_set.Block ~parts:1 ~total:10 0)
      .Gpusim.Device_set.count;
  (* schedule names round-trip; unknown names are rejected *)
  List.iter
    (fun s ->
      match
        Gpusim.Device_set.schedule_of_string (Gpusim.Device_set.schedule_name s)
      with
      | Ok s' -> Alcotest.(check bool) "schedule roundtrip" true (s = s')
      | Error e -> Alcotest.failf "schedule rejected: %s" e)
    [ Gpusim.Device_set.Block; Gpusim.Device_set.Cyclic ];
  (match Gpusim.Device_set.schedule_of_string "diagonal" with
  | Ok _ -> Alcotest.fail "bogus schedule accepted"
  | Error _ -> ())

let test_device_set_members () =
  let set = Gpusim.Device_set.create ~seed:5 3 in
  Alcotest.(check int) "size" 3 (Gpusim.Device_set.size set);
  Alcotest.(check int) "all alive" 3 (Gpusim.Device_set.num_alive set);
  Alcotest.(check (list int)) "alive ids" [ 0; 1; 2 ]
    (Gpusim.Device_set.alive_ids set);
  Alcotest.(check bool) "primary is device 0" true
    (Gpusim.Device_set.primary set == Gpusim.Device_set.device set 0);
  (* member ids are their ordinals *)
  for i = 0 to 2 do
    Alcotest.(check int) "member id" i
      (Gpusim.Device_set.device set i).Gpusim.Device.id
  done;
  (* losing the primary: the survivors carry on, first_alive skips it *)
  let p =
    Gpusim.Fault_plan.create ~seed:5
      [ Gpusim.Fault_plan.mk_rule Gpusim.Fault_plan.Device_lost ]
  in
  let set =
    Gpusim.Device_set.create ~seed:5 ~plan:p 2
  in
  let d0 = Gpusim.Device_set.device set 0 in
  (try Gpusim.Device.begin_launch d0 ~label:"k" with
  | Gpusim.Device.Device_fault _ -> ());
  Alcotest.(check bool) "primary lost" false (Gpusim.Device.alive d0);
  Alcotest.(check int) "one alive" 1 (Gpusim.Device_set.num_alive set);
  Alcotest.(check (list int)) "survivor id" [ 1 ]
    (Gpusim.Device_set.alive_ids set);
  (match Gpusim.Device_set.first_alive set with
  | Some d -> Alcotest.(check int) "first alive" 1 d.Gpusim.Device.id
  | None -> Alcotest.fail "survivor expected");
  Alcotest.(check bool) "not all lost" false (Gpusim.Device_set.all_lost set);
  (* the injected loss folds back into the base plan for reporting *)
  Gpusim.Device_set.flush_events set;
  Alcotest.(check bool) "base plan latched lost" true p.Gpusim.Fault_plan.lost;
  Alcotest.(check int) "base plan sees the event" 1 (Gpusim.Fault_plan.injected p)

(* A one-member set arms its device with the caller's plan itself (not a
   reseeded partition), so injected events land there as they fire. *)
let test_device_set_of_one_keeps_plan () =
  let p =
    Gpusim.Fault_plan.create ~seed:5
      [ Gpusim.Fault_plan.mk_rule Gpusim.Fault_plan.Launch_fail ]
  in
  let set = Gpusim.Device_set.create ~seed:5 ~plan:p 1 in
  let dev = Gpusim.Device_set.primary set in
  Alcotest.(check int) "one member" 1 (Gpusim.Device_set.size set);
  Alcotest.(check bool) "caller's plan" true (dev.Gpusim.Device.plan == p);
  (try Gpusim.Device.begin_launch dev ~label:"k" with
  | Gpusim.Device.Device_fault _ -> ());
  Alcotest.(check int) "event visible without flush_events" 1
    (Gpusim.Fault_plan.injected p)

let tests =
  [ Alcotest.test_case "buf basics" `Quick test_buf_basics;
    Alcotest.test_case "buf blit" `Quick test_buf_blit;
    Alcotest.test_case "buf equal is bitwise" `Quick test_buf_equal;
    Alcotest.test_case "buf compare" `Quick test_buf_compare;
    QCheck_alcotest.to_alcotest buf_compare_reflexive;
    QCheck_alcotest.to_alcotest buf_max_diff_symmetric;
    Alcotest.test_case "cost model" `Quick test_costmodel;
    Alcotest.test_case "device memory" `Quick test_device_memory;
    Alcotest.test_case "device accounting" `Quick test_device_accounting;
    Alcotest.test_case "device streams" `Quick test_device_streams;
    Alcotest.test_case "chrome json parses" `Quick test_chrome_json_parses;
    Alcotest.test_case "chrome tids" `Quick test_chrome_tids;
    Alcotest.test_case "chrome process name" `Quick test_chrome_process_name;
    Alcotest.test_case "metrics pp golden" `Quick test_metrics_pp_golden;
    Alcotest.test_case "metrics charge hook" `Quick test_metrics_charge_hook;
    Alcotest.test_case "metrics" `Quick test_metrics;
    QCheck_alcotest.to_alcotest split_partitions;
    Alcotest.test_case "device set schedules" `Quick test_device_set_schedules;
    Alcotest.test_case "device set members" `Quick test_device_set_members;
    Alcotest.test_case "device set of one keeps the plan" `Quick
      test_device_set_of_one_keeps_plan ]
