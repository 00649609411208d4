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

    The event loop feeds the process-global telemetry registry
    ({!Psbox_telemetry.Metrics}): [sim.events_fired], [sim.events_scheduled],
    [sim.events_cancelled], [sim.queue_depth]/[sim.queue_depth_max] and the
    tombstone-reap counters [sim.reap_passes]/[sim.tombstones_reaped].
    Scheduling calls accept an optional [?label] that additionally counts
    fires of that source under [sim.events.<label>]. While a trace is being
    recorded, the loop also emits a decimated queue-depth timeline on the
    ["engine.sim"] track. *)

type t

type handle
(** A handle on a scheduled event, usable to cancel it. Handles are
    immediate ints (no allocation per event): a generation stamp plus a
    pool index. Once the event fires, is reaped, or the simulator is
    {!retire}d, the handle goes stale and every operation on it is a
    harmless no-op. *)

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
    {!set_default_pooling}). Reuses a {!retire}d simulator of the same
    pooling mode when one is available on this domain. *)

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

type label
(** An interned event label: an id resolved once via {!label}, counted
    under [sim.events.<name>] when a so-labelled event fires. The fire
    path is a branch plus an array-indexed counter bump — no string,
    hashtable, or closure per event. *)

val label : string -> label
(** Intern [name], resolving its [sim.events.<name>] counter. Idempotent;
    safe from any domain. Resolve once at subsystem creation, not per
    schedule call. *)

val schedule_at : t -> ?label:label -> Time.t -> (unit -> unit) -> handle
(** [schedule_at sim t f] runs [f] when the clock reaches [t]. [?label]
    counts the fire under the label's [sim.events.<name>] counter.

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

val retire : t -> unit
(** Return [sim]'s scratch storage (queue arrays, slot pool) to a small
    domain-local cache for reuse by the next {!create} of the same
    pooling mode, invalidating every outstanding handle. The simulator
    must not be used afterwards. Fleet shards retire each device's
    simulator so per-device warm-up allocation happens once per worker. *)

val pending : t -> int
(** Number of live events still scheduled. Cancelled events are excluded,
    whether or not their tombstones have been reaped from the queue yet. *)

val queue_length : t -> int
(** Physical queue length, including cancelled tombstones awaiting the next
    bulk reap — a diagnostic; use {!pending} for the live count. *)

(** {1 Periodic events}

    The common self-rescheduling-timer pattern (scheduler ticks, DVFS
    governor sampling, housekeeping) packaged once: the timer re-arms itself
    {e before} running its body, so events the body schedules for the same
    future instant keep firing after the tick, and {!cancel_every} cancels
    the in-flight occurrence at once: it never fires, and like any cancelled
    event it leaves a tombstone in the queue until the head or a bulk reap
    reaches it. *)

type periodic
(** A recurring event, usable to stop the recurrence. *)

val schedule_every :
  t -> ?start:Time.t -> Time.span -> (unit -> unit) -> periodic
(** [schedule_every sim ~start span f] runs [f] at [start] (default: one
    period from now) and every [span] thereafter until {!cancel_every}.
    @raise Invalid_argument if [span] is not positive or [start] is in the
    past. *)

val cancel_every : periodic -> unit
(** Stop the recurrence and cancel the in-flight occurrence. Idempotent. *)

val periodic_stopped : periodic -> bool
