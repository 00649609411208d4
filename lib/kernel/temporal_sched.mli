(** Fair queueing plus psbox temporal balloons over one device (§4.2).

    The scheduler owns the CPU side of a device queue: per-app FIFO queues,
    dispatch of up to [window] items into the device in least-credit order,
    and the paper's temporal-balloon machine. The GPU and DSP command
    drivers ({!Accel_driver}) and the WiFi packet scheduler ({!Net_sched})
    are thin adapters over it: they supply the device's calls and the few
    {!hooks} where the devices really differ.

    Credit is the per-app fair-queueing clock (device unit-seconds for an
    accelerator, bytes sent for the NIC). An app returning from idle is
    placed just below the virtual-time frontier (the least credit among
    apps still competing), so idle periods bank nothing.

    When an app is sandboxed, the scheduler runs five phases:

    + {e drain others} — stop dispatching; wait for foreign in-flight items
      to complete;
    + {e flush psbox} — dispatch the sandboxed app's buffered items;
    + {e serve psbox} — only the sandboxed app dispatches, everyone else
      buffers;
    + {e drain psbox} — when another app deserves the device, wait for the
      sandboxed app's in-flight items;
    + {e flush others} — release buffered foreign items in queueing order.

    The interval from the end of phase 1 to the end of phase 4 is an
    exclusive balloon: only the sandboxed app (plus idle power) touches the
    device, and the balloon listener is notified at its edges so the psbox
    virtual meter and the power-state virtualization can act on them. *)

type phase = Normal | Drain_others | Serve | Drain_psbox
(** [Normal] is fair dispatch; the other three are the balloon's drain,
    serve and drain-psbox phases. *)

type share_change = {
  mutable at : Psbox_engine.Time.t;
  mutable app : int;
  mutable share : int;
}
(** An app's share of a resource changed; [share] is the new value. The
    device schedulers publish in-flight item counts, {!Smp} running-core
    counts.

    Each publisher allocates one record and rewrites it for every change,
    so a record is valid only while it is being delivered: a subscriber
    reads the fields it needs during delivery and copies what it keeps. *)

(** The device calls the scheduler needs. *)
type 'item device = {
  in_flight : unit -> int;  (** items handed to the device, not yet done *)
  in_flight_of : int -> int;  (** the same, for one app *)
  submit : 'item -> unit;  (** hand an item to the device *)
  item_id : 'item -> int;
  gate_span : 'item -> float -> Psbox_engine.Time.span;
      (** [gate_span item rate]: how long dispatching [item] closes its
          app's rate gate when the gate admits [rate] units per second *)
}

type 'item t

(** What differs per device. Each hook runs synchronously inside the
    scheduler, at a fixed point of the machine. *)
type 'item hooks = {
  on_drain : 'item t -> unit;  (** drain-others begins *)
  on_serve : 'item t -> int -> unit;
      (** the balloon opens for the sandboxed app, before the phase turns
          to [Serve] *)
  on_serve_end : 'item t -> int -> unit;
      (** the balloon closes, before the listener hears of it *)
  serve_credit : 'item t -> int -> float;
      (** the sandboxed app's credit in the yield test, while it is being
          served *)
  on_done : 'item t -> 'item -> unit;
      (** an item the scheduler handed to the device (queued or
          {!bypass}ed) completed, before its [on_done] callback *)
  on_close : 'item t -> unit;
      (** flush-others: release what the device held back during the
          balloon; runs back in [Normal], before dispatch resumes *)
}

val create :
  Psbox_engine.Sim.t ->
  rail:Psbox_hw.Power_rail.t ->
  window:int ->
  wake_bonus:float ->
  name:string ->
  rate_arg:string ->
  'item device ->
  'item hooks ->
  'item t
(** [rail] is the device's power rail: the histories keep its retention
    window. [wake_bonus] is how far below the frontier a waking app is
    placed. Registers [<name>.dispatch_latency_us] and
    [<name>.gate_wakeups] and traces on the track [kernel.<name>];
    [rate_arg] names the rate argument of the gate lane's set-rate
    instants. *)

(** {1 Driving the scheduler (device adapters)} *)

val enqueue :
  'item t -> app:int -> ?wake:bool -> 'item -> on_done:('item -> unit) -> unit
(** Buffer an item at the tail of the app's queue; [on_done] fires when the
    device completes it. With [wake] (the default) an idle app gets wake
    placement first. Call {!pump} afterwards. *)

val pump : 'item t -> unit
(** Dispatch whatever the phase and the window allow. *)

val bypass : 'item t -> 'item -> on_done:('item -> unit) -> unit
(** Hand an item straight to the device, outside the queues and the
    balloon machine (reception is not schedulable). *)

val complete : 'item t -> app:int -> 'item -> unit
(** The device completed [app]'s item: log it, publish the share, run
    {!hooks.on_done} and the item's callback, then advance the machine. *)

val bill : 'item t -> app:int -> float -> unit
(** Add to an app's credit. *)

val phase : 'item t -> phase
val serve_started : 'item t -> Psbox_engine.Time.t

val fold_queued : 'item t -> ('a -> int -> 'item -> 'a) -> 'a -> 'a
(** Fold over every buffered item with its app. *)

(** {1 Queries} *)

val rail : 'item t -> Psbox_hw.Power_rail.t
val pending : 'item t -> app:int -> int

val credit : 'item t -> app:int -> float
(** The app's fair-queueing credit so far. *)

(** {1 Per-app rate gates (power-budget actuation)}

    A leaky-bucket limiter on dispatch: an app with a rate of [r] may put
    at most [r] units of work on the device per second, averaged at item
    granularity. Gated apps keep their queue ordering and credit; they sit
    out the pick until the gate reopens (a dedicated wakeup re-pumps the
    scheduler, so a gated app never stalls waiting for unrelated traffic).
    The sandboxed app is exempt — balloons are psbox's own enforcement
    path. A gated app makes a balloon yield only once its gate has
    reopened. *)

val set_rate : 'item t -> app:int -> float option -> unit
(** [set_rate s ~app (Some r)] caps dispatch at [r] units per second
    (clamped to a tiny positive floor); [None] removes the gate. Takes
    effect on the next dispatch decision. *)

val rate : 'item t -> app:int -> float option

val gated_until : 'item t -> app:int -> Psbox_engine.Time.t option
(** When the app's gate reopens, if it is currently closed. *)

(** {1 Share bus (live attribution)} *)

val share_bus : 'item t -> share_change Psbox_engine.Bus.t
(** Each app's in-flight item count, published at every dispatch and
    completion, so {!Psbox_accounting.Split.live_sched} can attribute the
    device's power without manual share pushes. The scheduler publishes
    one reused record (see {!share_change}). *)

(** {1 Temporal balloons} *)

val sandbox : 'item t -> app:int -> unit
(** @raise Invalid_argument if another app is already sandboxed here. *)

val unsandbox : 'item t -> unit
(** Ends any open balloon (gracefully: the exclusivity interval closes when
    the sandboxed app's in-flight items drain). *)

val sandboxed : 'item t -> int option

val set_balloon_listener :
  'item t ->
  on_start:(unit -> unit) ->
  on_stop:(Psbox_engine.Time.t -> unit) ->
  unit
(** [on_stop] is given the balloon's start. *)

val balloon_intervals : 'item t -> (Psbox_engine.Time.t * Psbox_engine.Time.t) list
(** Completed exclusive intervals, oldest first. *)

val balloon_open_since : 'item t -> Psbox_engine.Time.t option
(** Start of the balloon in progress: {!serve_started} while the phase is
    [Serve] or [Drain_psbox]. *)

val balloon_open : 'item t -> bool

(** {1 Diagnostics}

    Both histories keep the entries of the device rail's retention window
    (see {!System.create}); without one, they keep everything. *)

val dispatch_latencies_us : 'item t -> (int * float) list
(** (app, enqueue-to-device latency in microseconds) per dispatched item,
    oldest first. *)

val completed_items : 'item t -> 'item list
(** Completed items, oldest first — with their device timestamps, the raw
    material of the paper's Figures 3(b) and 7(c)/(d). *)
