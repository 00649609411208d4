(** Per-core CFS runqueue.

    One instance manages the runnable entities of one core, ordered by
    vruntime (the scheduling credit). The running entity is dequeued while it
    runs, as in Linux. [min_vruntime] advances monotonically and anchors the
    placement of newly woken entities so sleepers neither starve nor bank
    unbounded credit.

    The queue is ordered by [(key, eid)], where an entity's key is its
    vruntime when it was enqueued; {!dequeue} finds an entity by its
    current vruntime. Once the queue has grown to its largest length,
    only {!leftmost} allocates (its [Some]): the other queries answer
    {!Entity.none} when they find nothing. *)

type t

val create : unit -> t

val nice0_weight : float
(** The weight against which vruntime deltas are normalized (1024.). *)

val enqueue : t -> Entity.t -> unit
(** Put a runnable entity on the queue. No-op if already queued. *)

val dequeue : t -> Entity.t -> unit

val leftmost : t -> Entity.t option
(** The queued entity with the least vruntime (excluding the running one). *)

val first_other : t -> Entity.t -> Entity.t
(** The first queued entity in queue order whose eid differs from the
    given one's, or {!Entity.none}. *)

val find_first : t -> (Entity.t -> bool) -> Entity.t
(** The first queued entity in queue order that satisfies the predicate,
    or {!Entity.none}. *)

val dequeue_if : t -> (Entity.t -> bool) -> unit
(** {!dequeue} every queued entity that satisfies the predicate, in queue
    order. *)

val n_queued : t -> int

val curr : t -> Entity.t option
val set_curr : t -> Entity.t option -> unit

val min_vruntime : t -> float

val place_new : t -> Entity.t -> unit
(** Give a brand-new entity a fair starting vruntime ([max] of its own and
    the queue's [min_vruntime]). *)

val place_woken : t -> Entity.t -> unit
(** Place a woken sleeper: vruntime is pulled up to
    [min_vruntime - wakeup_bonus] so long sleeps do not bank credit. *)

val charge : t -> Entity.t -> Psbox_engine.Time.span -> unit
(** Bill [span] of execution to an entity: advances its vruntime by
    [span * nice0/weight] and updates [min_vruntime]. Only an entity off
    the queue (the running one) is charged, since the queue is keyed by
    vruntime.
    @raise Invalid_argument if the entity is queued. *)

val update_min_vruntime : t -> unit
