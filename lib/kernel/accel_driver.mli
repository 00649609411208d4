(** Accelerator driver: fair command scheduling plus psbox temporal balloons.

    The driver owns the CPU side of a GPU/DSP command queue. It keeps
    per-app pending queues and dispatches up to a configurable window of
    commands into the device, picking apps either by fair queueing (least
    virtual device runtime first — a CFS-in-spirit scheduler, as built for
    both test GPUs in §5) or round-robin.

    When an app is sandboxed, the driver runs the paper's five-phase
    temporal-balloon machine (§4.2):

    + {e drain others} — stop dispatching; wait for foreign in-flight
      commands to complete; bill the device's idle capacity to the sandboxed
      app;
    + {e flush psbox} — dispatch the sandboxed app's buffered commands;
    + {e serve psbox} — only the sandboxed app dispatches, everyone else
      buffers; the whole device is billed to the sandboxed app;
    + {e drain psbox} — when the policy decides others deserve access, wait
      for the sandboxed app's in-flight commands;
    + {e flush others} — release buffered foreign commands in queueing
      order.

    The interval from the end of phase 1 to the end of phase 4 is an
    exclusive balloon: only the sandboxed app (plus idle power) touches the
    device, and listeners are notified so the psbox virtual meter and the
    power-state virtualization can act on the boundaries. *)

type policy = Fair | Round_robin

type buffering = Lock_requests | Per_process_queues
(** Where the paper's two GPU stacks buffer during balloons: SGX544 buffers
    app locking requests in syscall context; Adreno buffers per-process
    command queues. Behaviourally equivalent here; recorded for latency
    attribution. *)

type t

val create :
  Psbox_engine.Sim.t ->
  Psbox_hw.Accel.t ->
  ?policy:policy ->
  ?buffering:buffering ->
  ?window:int ->
  ?confine_cost:bool ->
  unit ->
  t
(** [window] is the maximum number of commands outstanding in the device
    (default 2 — enough to create the overlap of Figure 3(b)).
    [confine_cost] (default true) enables the paper's billing of drain
    losses and serve windows to the sandboxed app; disabling it is the
    ablation that lets a sandboxed app hurt its neighbours. *)

val device : t -> Psbox_hw.Accel.t

val submit :
  t ->
  ?on_accepted:(unit -> unit) ->
  app:int ->
  Psbox_hw.Accel.command ->
  on_complete:(Psbox_hw.Accel.command -> unit) ->
  unit
(** Queue a command on behalf of an app; [on_complete] fires when the device
    reports completion. [on_accepted] fires when the driver accepts the
    submission: immediately under [Per_process_queues]; deferred until the
    balloon's flush-others phase under [Lock_requests], where a foreign
    submission stalls in syscall context while a balloon holds the queue
    (the SGX/Adreno structural difference of §5). *)

val submission_blocks : t -> app:int -> bool
(** Whether a submission from [app] would stall right now. *)

val pending : t -> app:int -> int

val completed : t -> app:int -> int
(** Commands completed so far, per app (throughput accounting). *)

val vruntime : t -> app:int -> float
(** Virtual device runtime (unit-seconds) billed to an app so far. *)

(** {1 Per-app rate gates (power-budget actuation)}

    A leaky-bucket limiter on command dispatch: an app with a rate of [r]
    may put at most [r] device unit-seconds of work on the device per
    second, averaged at command granularity. Gated apps keep their queue
    ordering and fair-queueing credit; they simply sit out the pick until
    the gate reopens (a dedicated wakeup re-pumps the driver, so a gated
    app never stalls waiting for unrelated traffic). The sandboxed app is
    exempt — balloons are psbox's own enforcement path. *)

val set_rate : t -> app:int -> float option -> unit
(** [set_rate d ~app (Some r)] caps dispatch at [r] unit-seconds per
    second (clamped to a tiny positive floor); [None] removes the gate.
    Takes effect on the next dispatch decision. *)

val rate : t -> app:int -> float option

val gated_until : t -> app:int -> Psbox_engine.Time.t option
(** When the app's gate reopens, if it is currently closed. *)

(** {1 Share bus (live attribution)} *)

type share_change = { at : Psbox_engine.Time.t; app : int; share : float }
(** The app's in-flight command count on the device changed; [share] is
    the new count. *)

val share_bus : t -> share_change Psbox_engine.Bus.t
(** Published at every dispatch and completion, so
    {!Psbox_accounting.Split.live_accel} can attribute device power without
    manual share pushes. *)

(** {1 Temporal balloons} *)

val sandbox : t -> app:int -> unit
(** @raise Invalid_argument if another app is already sandboxed here. *)

val unsandbox : t -> unit
(** Ends any open balloon (gracefully: the exclusivity interval closes when
    the sandboxed app's in-flight commands drain). *)

val sandboxed : t -> int option

val set_balloon_listener : t -> on_start:(unit -> unit) -> on_stop:(unit -> unit) -> unit

val balloon_intervals : t -> (Psbox_engine.Time.t * Psbox_engine.Time.t) list
(** Completed exclusive intervals, oldest first. *)

val balloon_open : t -> bool

(** {1 Diagnostics}

    Both histories keep the entries of the device rail's retention window
    (see {!System.create}); without one, they keep everything. *)

val dispatch_latencies_us : t -> (int * float) list
(** (app, submit-to-device-dispatch latency in microseconds) per command,
    oldest first. *)

val completed_commands : t -> Psbox_hw.Accel.command list
(** Completed commands with their device start/finish timestamps, oldest
    first — the raw material of the paper's Figure 3(b) and 7(c)/(d). *)
