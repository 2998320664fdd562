(** The OpenACC V1.0 runtime library routines.

    Directive-based models have three components (§II-A of the paper):
    directives, library routines, and environment variables.  This module
    defines each routine once, as a Mini-C builtin — its meaning on the
    host alone and its meaning on the simulated device set — plus the
    [ACC_DEVICE_TYPE] / [ACC_DEVICE_NUM] environment variables.  Programs
    pass device types as the OpenACC integer encodings:
    [acc_get_num_devices(4)] counts the [acc_device_nvidia] devices. *)

open Value

(* Device type encodings, following the OpenACC 1.0 header. *)
let acc_device_none = 0
let acc_device_default = 1
let acc_device_host = 2
let acc_device_not_host = 3
let acc_device_nvidia = 4

(* Every routine takes and returns ints (void routines return 0), so it
   is usable in both expression and statement position. *)
let int0 f = Nullary (fun () -> Int (f ()))
let int1 f = Unary (fun a -> Int (f (to_int a)))
let int2 f = Binary (fun a b -> Int (f (to_int a) (to_int b)))

(* Host code asking: only true for the host device type. *)
let on_device t = if t = acc_device_host then 1 else 0

(* With no device attached (reference execution) everything is
   synchronous and there is one host device. *)
let host =
  [ ("acc_get_num_devices", int1 (fun _ -> 1));
    ("acc_set_device_type", int1 (fun _ -> 0));
    ("acc_get_device_type", int0 (fun () -> acc_device_host));
    ("acc_set_device_num", int2 (fun _ _ -> 0));
    ("acc_get_device_num", int1 (fun _ -> 0));
    ("acc_async_test", int1 (fun _ -> 1));
    ("acc_async_test_all", int0 (fun () -> 1));
    ("acc_async_wait", int1 (fun _ -> 0));
    ("acc_async_wait_all", int0 (fun () -> 0));
    ("acc_init", int1 (fun _ -> 0));
    ("acc_shutdown", int1 (fun _ -> 0));
    ("acc_on_device", int1 on_device) ]

type state = {
  set : Gpusim.Device_set.t;
  mutable device_type : int;
  mutable device_num : int;
  mutable routines : (string * builtin) list;  (** set once, by [create] *)
}

(** The member device [device_num] designates (primary out of range). *)
let current st =
  if st.device_num >= 0 && st.device_num < Gpusim.Device_set.size st.set
  then Gpusim.Device_set.device st.set st.device_num
  else Gpusim.Device_set.primary st.set

(* The host clock is always the primary's metrics, whichever member the
   program selected. *)
let host_clock st =
  (Gpusim.Device_set.primary st.set).Gpusim.Device.metrics
    .Gpusim.Metrics.host_clock

(* Is a stream's queued work complete at the current simulated time? *)
let async_done st q =
  let device = current st in
  match Hashtbl.find_opt device.Gpusim.Device.streams q with
  | None -> true
  | Some s -> s.Gpusim.Device.avail <= host_clock st

let all_async_done st =
  let device = current st in
  Hashtbl.fold
    (fun _ s acc -> acc && s.Gpusim.Device.avail <= host_clock st)
    device.Gpusim.Device.streams true

let device st =
  [ ("acc_get_num_devices",
     (* A lost device is no longer countable: programs can poll device
        health through the standard routine. *)
     int1 (fun t ->
         if t = acc_device_host then 1
         else Gpusim.Device_set.num_alive st.set));
    ("acc_set_device_type", int1 (fun t -> st.device_type <- t; 0));
    ("acc_get_device_type", int0 (fun () -> st.device_type));
    ("acc_set_device_num",
     (* Honour only ordinals the device set actually has. *)
     int2 (fun n _ ->
         if n >= 0 && n < Gpusim.Device_set.size st.set then
           st.device_num <- n;
         0));
    ("acc_get_device_num", int1 (fun _ -> st.device_num));
    ("acc_async_test", int1 (fun q -> if async_done st q then 1 else 0));
    ("acc_async_test_all",
     int0 (fun () -> if all_async_done st then 1 else 0));
    ("acc_async_wait",
     int1 (fun q -> Gpusim.Device.wait (current st) (Some q); 0));
    ("acc_async_wait_all",
     int0 (fun () -> Gpusim.Device.wait (current st) None; 0));
    ("acc_init", int1 (fun _ -> 0));
    ("acc_shutdown", int1 (fun _ -> 0));
    ("acc_on_device", int1 on_device) ]

let create set =
  let device_type =
    match Sys.getenv_opt "ACC_DEVICE_TYPE" with
    | Some "host" -> acc_device_host
    | Some ("nvidia" | "NVIDIA") -> acc_device_nvidia
    | _ -> acc_device_default
  in
  let device_num =
    match Sys.getenv_opt "ACC_DEVICE_NUM" with
    | Some s -> ( try int_of_string s with _ -> 0)
    | None -> 0
  in
  let st = { set; device_type; device_num; routines = [] } in
  st.routines <- device st;
  st

let routines st = st.routines
