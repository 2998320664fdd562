(** The OpenACC V1.0 runtime library routines ([acc_init],
    [acc_get_num_devices], [acc_async_test], ...), each defined once as a
    Mini-C builtin: its meaning on the host alone and its meaning on the
    simulated device set.  The device meanings honour the
    [ACC_DEVICE_TYPE] and [ACC_DEVICE_NUM] environment variables.  Device
    types are the OpenACC integer encodings below, which Mini-C programs
    pass as literals ([acc_get_num_devices(4)]): no name is predeclared.

    Multi-device corners follow the device set: [acc_get_num_devices]
    counts only members still on the bus (a lost device is no longer
    countable), and [acc_set_device_num] / [acc_get_device_num] select the
    member the async routines address — out-of-range ordinals are
    ignored. *)

val acc_device_none : int
val acc_device_default : int
val acc_device_host : int
val acc_device_not_host : int
val acc_device_nvidia : int

(** Every routine's meaning with no device attached (reference
    execution): everything is synchronous and there is one host
    device. *)
val host : (string * Value.builtin) list

type state

(** The runtime of a device set; builds its routine table once. *)
val create : Gpusim.Device_set.t -> state

(** The member the program selected (the primary when out of range). *)
val current : state -> Gpusim.Device.t

(** Every routine's meaning on the device set, named as in {!host}. *)
val routines : state -> (string * Value.builtin) list
