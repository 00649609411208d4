(** Discrete-event simulator core.

    A simulator owns a virtual clock and an event queue, one binary min-heap
    ({!Heap}) keyed by [(time, seq)]. Events scheduled for the same instant
    fire in the order they were scheduled (FIFO within an instant), which
    keeps runs fully deterministic. Cancelled events are tracked exactly
    ({!pending} reports only live events) but stay in the queue as
    tombstones until they reach its head or a bulk reap removes them, once
    they outnumber live events, so periodic-timer churn does not bloat the
    queue.

    The steady-state schedule/fire cycle is allocation-free: events live in
    pooled slots recycled through a free list, handles are immediate ints
    stamped with the slot's generation (so a stale handle to a recycled
    slot is detected and {!cancel} on it is a no-op), labels are interned
    ids backed by pre-resolved counters, and queue-depth gauge updates
    batch behind a dirty flag. See DESIGN.md, "Allocation discipline".

    Each simulator serves one run: it captures the current metric store
    when it is created and keeps it, so its counts land in the store of
    the run that made it (a fleet device makes a fresh simulator inside its
    own store). The event loop feeds the telemetry registry
    ({!Psbox_telemetry.Metrics}) in that store (see {!metrics}):
    [sim.events_fired], [sim.events_scheduled],
    [sim.events_cancelled], [sim.queue_depth]/[sim.queue_depth_max] and the
    tombstone-reap counters [sim.reap_passes]/[sim.tombstones_reaped].
    A {!timer} may carry a {!label} that additionally counts its fires
    under [sim.events.<label>]. While a trace is being recorded, the loop
    also emits a decimated queue-depth timeline on the ["engine.sim"]
    track.

    Recurring work (the budget control tick, the health evaluation grid,
    DVFS governor sampling, the CFS-bandwidth quota refill, the power-model
    recorder and estimator windows, power-event polling) runs on
    {!timer}s: one grid per timer, anchored when it is made, with at most
    one occurrence pending. *)

type t

type handle
(** A handle on a scheduled event, usable to cancel it. Handles are
    immediate ints (no allocation per event): a generation stamp plus a
    pool index. Once the event fires or is reaped, the handle goes stale
    and every operation on it is a harmless no-op. *)

val none : handle
(** A handle on no event: {!cancel} and {!cancelled} treat it as already
    done. The idle value for "armed timer" fields — cheaper than
    [handle option] because re-arming stores an immediate int instead of
    allocating a [Some]. *)

val is_none : handle -> bool

type backend = [ `Heap | `Wheel ]

val default_backend : unit -> backend
(** Always [`Heap]: the queue has one implementation. The type and this
    value remain only because the benchmark's run manifest
    ([perfbench/run.ml]) matches both constructors; they go when that
    manifest drops the field. *)

val create : ?pooling:bool -> unit -> t
(** [create ()] uses the domain's default pooling mode (initially on; see
    {!set_default_pooling}). The simulator captures the current metric
    store. *)

val set_default_pooling : bool -> unit
(** Set whether subsequent {!create} calls recycle event-slot records
    (default [true]) — the hook for the [--pool on|off] A/B toggle. With
    pooling off every event allocates a fresh record (the pre-pool
    behavior); fire order and experiment output are identical either way
    (a qcheck property and the golden outputs of [dune runtest] prove it).
    The setting is domain-local: each domain picks its own default (fresh
    domains start with pooling on), so concurrent fleet shards never race
    on it. *)

val default_pooling : unit -> bool

val now : t -> Time.t
(** The current simulated time. *)

val metrics : t -> Psbox_telemetry.Metrics.store
(** The metric store the simulator captured at {!create}
    ([Metrics.current ()] then): every metric update made inside its event
    loop, by the simulator or by the subsystems it drives, names this
    store, so the loop makes no domain-local read per update. *)

val tracer : t -> Psbox_telemetry.Tracing.state
(** The tracer state the simulator captured at {!create}
    ([Tracing.current ()] then). The subsystems it drives guard their
    trace events with [Tracing.recording_in (tracer sim)], which makes no
    domain-local read. The state is never replaced, so a trace started
    after the simulator was made is still recorded. *)

type label
(** An interned event label: an id resolved once via {!label}, counted
    under [sim.events.<name>] when an occurrence of a so-labelled {!timer}
    fires. The fire path is a branch plus an array-indexed counter bump —
    no string, hashtable, or closure per event. *)

val label : string -> label
(** Intern [name], resolving its [sim.events.<name>] counter. Idempotent;
    safe from any domain. The counter is registered (its zero row
    created) only in the metric store current at the first interning in
    the process, so where a label is interned decides where that row
    shows. *)

val schedule_at : t -> Time.t -> (unit -> unit) -> handle
(** [schedule_at sim t f] runs [f] when the clock reaches [t].

    @raise Invalid_argument if [t] is in the past. *)

val schedule_after : t -> Time.span -> (unit -> unit) -> handle
(** [schedule_after sim d f] runs [f] after [d] has elapsed.

    @raise Invalid_argument if [d] is negative. *)

val cancel : t -> handle -> unit
(** Cancel a scheduled event. Cancelling an already-fired, already-
    cancelled, stale (recycled slot) or {!none} handle is a no-op. *)

val cancelled : t -> handle -> bool
(** Whether the event behind [h] is a cancelled tombstone still awaiting
    its bulk reap. Stale handles (fired, reaped, or [none]) read as
    [false]: the pool cannot distinguish a reaped cancellation from a
    fired event. *)

val run_until : t -> Time.t -> unit
(** [run_until sim t] fires every event scheduled strictly before or at [t]
    and advances the clock to [t]. *)

val run : t -> unit
(** Fire events until the queue is empty. *)

val pending : t -> int
(** Number of live events still scheduled. Cancelled events are excluded,
    whether or not their tombstones have been reaped from the queue yet. *)

val queue_length : t -> int
(** Physical queue length, including cancelled tombstones awaiting the next
    bulk reap — a diagnostic; use {!pending} for the live count. *)

(** {1 Grid timers}

    A timer owns the grid [epoch + k*period] ([k >= 1]), [epoch] being the
    clock when the timer is made, and keeps at most one occurrence of it
    pending. {!arm} schedules the first grid instant strictly after now,
    unless an occurrence is already pending or the timer is stopped; an
    idle stretch skips grid instants but never moves the grid. An
    occurrence stops counting as pending when its body starts, so the body
    decides whether and when to re-arm. Same-instant events fire in
    scheduling order, so a body that re-arms first gets its next tick
    ahead of anything it schedules for that instant, and one that re-arms
    last behind it. An arm that does nothing allocates nothing, so a
    caller on a hot path builds its body closure only when {!timer_state}
    reads [Idle]. *)

type timer

type timer_state =
  | Idle  (** nothing pending: {!arm} schedules *)
  | Armed  (** one occurrence pending *)
  | Stopped  (** {!stop_timer} was called: {!arm} does nothing, for good *)

val timer : t -> ?label:label -> Time.span -> timer
(** [timer sim ~label period] makes an idle timer whose grid is anchored
    at [now sim]; [?label] counts each fire under its counter.
    @raise Invalid_argument if [period] is not positive. *)

val arm : timer -> (unit -> unit) -> unit
(** [arm tm body] schedules [body] at the first grid instant after now if
    [tm] is [Idle]; otherwise it does nothing. *)

val timer_state : timer -> timer_state

val stop_timer : timer -> unit
(** Cancel the pending occurrence, if any; later arms do nothing.
    Idempotent. *)
