(** Per-array, per-direction data-movement ledger with typed cause
    attribution, live per-device allocation watermarks, and a
    counterfactual savings analyzer that re-costs the recorded movement
    under the gpusim transfer model for the saturator's candidate
    rewrites (hoist / copy→present / clause merge).

    Counted entries (the ones that passed through a device DMA engine)
    conserve bytes exactly against the {!Gpusim.Metrics}
    [bytes_h2d]/[bytes_d2h] accumulators summed over every device-set
    member: the runtime records them from each member's [Xfer] and [Mem]
    device events ({!Gpusim.Device.observe}).  Entries carry no link to
    the trace, so the ledger and the trace observe a run independently.
    The module is plain data — it knows nothing about [Gpusim];
    cost-model constants are passed into {!analyze}. *)

type cause =
  | Copyin  (** data-clause H2D upload (broadcast members included) *)
  | Copyout  (** data-clause D2H download (single-device) *)
  | Rebroadcast  (** reduction-merge broadcast / peer input sync *)
  | Gather  (** rotating multi-device D2H result gather *)
  | Retry  (** fault-recovery re-transfer (transient retry or checksum) *)
  | Failover  (** post-fallback re-upload of host results *)
  | Demotion  (** device-fresh data restored to the host (mirror/ckpt) *)

val cause_name : cause -> string

type dir = H2d | D2h

val dir_name : dir -> string

type entry = {
  e_seq : int;  (** ledger order *)
  e_array : string;
  e_dir : dir;
  e_cause : cause;
  e_bytes : int;
  e_dev : int;  (** device ordinal whose DMA engine moved the bytes *)
  e_site : string;  (** source directive label, e.g. ["copyin(a)"] *)
  e_loc : string;
  e_exec : int;  (** transfer-site execution ordinal (1-based; 0 if none) *)
  e_time : float;  (** simulated start time *)
  e_duration : float;
  e_counted : bool;  (** passed through a DMA engine (metrics bytes) *)
  e_redundant : bool;  (** destination copy was already fresh *)
  e_hoistable : bool;
      (** repeats an earlier same-array transfer with no intervening
          host access justifying it (no host write since the previous
          upload / no host read since the previous download): a hoisted
          data region would eliminate it *)
}

type lifetime = {
  lt_array : string;
  lt_dev : int;
  lt_bytes : int;
  lt_alloc : float;
  mutable lt_free : float option;  (** [None] while still allocated *)
}

type t

val create : devices:int -> schedule:string -> t

(** Record one transfer. [counted] marks movement that went through a
    device DMA engine (and so contributes to the conservation totals);
    modeled overlapped blits (reduction re-broadcast, mirror restores)
    pass [counted:false].  [hoist] marks a repeat transfer no host
    access required (see {!entry.e_hoistable}). *)
val xfer :
  t -> array:string -> dir:dir -> cause:cause -> bytes:int -> dev:int ->
  site:string -> loc:string -> exec:int -> time:float -> duration:float ->
  counted:bool -> redundant:bool -> hoist:bool -> unit

(** Record one allocation event: [bytes] is the signed delta (positive
    alloc, negative free), [allocated] the device's live total after
    it.  Feeds the watermarks, the chrome counter samples, and the
    per-array lifetime intervals. *)
val mem :
  t -> array:string -> dev:int -> bytes:int -> allocated:int ->
  time:float -> unit

(** Entries in ledger order. *)
val entries : t -> entry list

(** Per-array × per-device allocation intervals, in open order. *)
val lifetimes : t -> lifetime list

(** Allocation samples [(dev, time, allocated-after)] in event order. *)
val samples : t -> (int * float * int) list

(** Counted [(h2d, d2h)] byte totals — must equal the metrics
    accumulators summed over every device-set member (integer [=]). *)
val totals : t -> int * int

type site_report = {
  s_site : string;  (** directive label *)
  s_loc : string;
  s_array : string;
  s_dir : dir;
  s_execs : int;  (** transfer-site executions *)
  s_transfers : int;  (** counted DMA transfers (broadcast members incl.) *)
  s_bytes : int;
  s_redundant : int;  (** transfers whose destination was already fresh *)
  s_hoistable : int;
      (** non-redundant repeats a hoisted data region would eliminate *)
  s_wasted_bytes : int;
  s_causes : (string * int) list;  (** bytes by cause, first-use order *)
  s_rewrite : string;  (** "hoist" | "present" | "merge" | "none" *)
  s_saved_s : float;  (** modeled DMA time of the dropped transfers *)
  s_verdict : string;  (** "apply" | "keep" *)
}

type analysis = {
  a_devices : int;
  a_schedule : string;
  a_h2d_bytes : int;  (** counted totals (= the metrics accumulators) *)
  a_d2h_bytes : int;
  a_uncounted_bytes : int;  (** modeled overlapped-DMA movement *)
  a_transfers : int;  (** counted DMA transfers *)
  a_transfer_s : float;  (** noise-free model cost of every counted one *)
  a_causes : (string * int) list;  (** bytes by cause, first-use order *)
  a_sites : site_report list;  (** first-execution order *)
  a_wasted_bytes : int;
  a_saved_s : float;  (** total over "apply" verdicts *)
  a_peaks : (int * int * int) list;  (** (dev, current, peak) bytes *)
  a_lifetimes : lifetime list;
}

(** Minimum share of the modeled transfer time a rewrite must save to
    earn an "apply" verdict (an immaterial rewrite keeps the clauses as
    written). *)
val materiality : float

(** Re-cost the recorded ledger under the noise-free transfer model
    [pcie_latency + bytes / pcie_bandwidth] and classify each transfer
    site's counterfactual rewrite. *)
val analyze : t -> pcie_latency:float -> pcie_bandwidth:float -> analysis

val schema : string
val version : int

(** Canonical JSON document ([schema openarc.obs.memtrace], byte-stable
    for a fixed seed). *)
val json : name:string -> seed:int -> analysis -> Pjson.t

(** [json], printed. *)
val to_json : name:string -> seed:int -> analysis -> string

(** Largest per-device peak in the analysis. *)
val peak_bytes : analysis -> int

val pp : Format.formatter -> analysis -> unit
