(** Multicore CFS scheduler with psbox spatial balloons.

    One {!Cfs.t} instance per core, demand-driven preemption timers (the
    scheduler computes the next quota-refill / vruntime-crossing / balloon
    boundary analytically and arms exactly one event per core), wakeup
    preemption, and the paper's two CPU extensions (§4.2):

    - {b Spatial balloons}: when a sandboxed app's per-core group entity wins
      a core, the scheduler coschedules the app on {e all} cores of the
      balloon via task shootdown (modelled IPIs). Cores the app cannot fill
      are forced idle and billed to the app.
    - {b Scheduling loans}: a remote entity forced in ahead of its credit
      records the loan it needed; loans grow while the entity keeps running
      past its credit; at schedule-out the entities of the psbox evenly split
      the accumulated loans, disadvantaging the app in future competition.

    The scheduler records each coscheduling (balloon) period once and
    tells a listener at its edges, so a psbox virtual power meter reads its
    exclusive intervals here. It also records the per-core schedule as
    spans in a {!Psbox_engine.Trace.events} ring, stamped at their end and
    kept for the CPU rail's retention window.

    Its timing knobs are fixed: a 1 ms minimum quantum before a credit
    preemption, 1 ms of vruntime headroom before a wake preemption, 5 us
    of shootdown propagation, coscheduling periods bounded at 20 ms and at
    20 ms of vruntime loan per core, and a 10 ms quota refill period. The
    only setting is [confine_cost] (see {!create}). *)

type t

type balloon
(** Handle on a sandboxed app's CPU balloon. *)

val create : Psbox_engine.Sim.t -> Psbox_hw.Cpu.t -> confine_cost:bool -> t
(** [confine_cost] bills balloon-forced idle to the sandboxed app and
    settles scheduling loans: the paper's design, off only to reproduce
    the ablation. *)

val cpu : t -> Psbox_hw.Cpu.t
val cores : t -> int

val start : t -> unit
(** Begin scheduling (plans the first preemption instants). Call once. *)

(** {1 Tasks} *)

val spawn : t -> Task.t -> unit
(** Admit a task on its assigned core (joins its app's balloon group if the
    app is sandboxed). *)

val wake : t -> Task.t -> unit
(** Make a blocked task runnable (no-op with a pending-wake mark if it has
    not blocked yet — the race where completion beats the block). *)

val app_tasks : t -> app:int -> Task.t list

(** {1 Per-app CPU quotas (power-budget actuation)}

    CFS-bandwidth style throttling: each budgeted app may consume up to
    [quota * 10 ms] of runtime per 10 ms refill period (so a quota of [1.5]
    on a dual-core machine means one and a half cores' worth of CPU time).
    An app that exhausts its budget is pulled off the runqueues until the
    next refill; its tasks stay runnable but do not compete, so co-runners
    are unaffected. Sandboxed (ballooned) apps are exempt — balloons are
    psbox's own enforcement mechanism. *)

val set_quota : t -> app:int -> float option -> unit
(** [set_quota smp ~app (Some q)] caps the app at [q] core-seconds of
    runtime per second; [None] removes the cap (a throttled app re-enters
    at the next refill boundary). Quotas clamp at 0. The first quota ever
    set arms the refill timer; until then the scheduler's event stream is
    byte-identical to a build without quotas. *)

val quota : t -> app:int -> float option

(** {1 Share bus (live attribution)} *)

val share_bus : t -> Temporal_sched.share_change Psbox_engine.Bus.t
(** The number of cores currently executing an app, published on every
    running-app transition, synchronously with the scheduling decision.
    Idle and balloon-forced-idle cores count for nobody.
    {!Psbox_accounting.Split.live_cpu} subscribes to drive
    usage-proportional attribution without manual share pushes. The
    scheduler publishes one reused record, valid only during delivery
    (see {!Temporal_sched.share_change}). *)

(** {1 Spatial balloons (psbox support)} *)

val sandbox :
  t ->
  app:int ->
  on_start:(unit -> unit) ->
  on_stop:(Psbox_engine.Time.t -> unit) ->
  balloon
(** Enclose an app's tasks in per-core group entities {E}. From now on the
    app only runs inside coscheduling periods. [on_start] and [on_stop]
    run at the start and end of each period (after shootdown completes /
    at schedule-out); [on_stop] is given the period's start. They are in
    place before the first period can open: on a one-core machine that is
    within this call, when the app is running. The psbox virtual meter
    drives its power-state virtualization from them.
    @raise Invalid_argument if the app is already sandboxed. *)

val unsandbox : t -> balloon -> unit
(** End any live coscheduling period, release the app's tasks back to normal
    scheduling. *)

val balloon_intervals : balloon -> (Psbox_engine.Time.t * Psbox_engine.Time.t) list
(** Completed coscheduling periods, oldest first. *)

val balloon_open_since : balloon -> Psbox_engine.Time.t option
(** Start of the coscheduling period in progress, once every core has
    joined it. *)

val total_loan_issued : balloon -> float
(** Cumulative vruntime loaned over all completed periods (diagnostics and
    invariant tests). *)

(** {1 Introspection}

    The scheduling spans and wake latencies keep the entries of the CPU
    rail's retention window (see {!System.create}); without one, they keep
    everything. *)

val sched_spans : t -> (int * int) Psbox_engine.Trace.span list
(** Completed scheduling spans tagged [(core, app)]; [app = -1] is true
    idle, [-2] is balloon-forced idle. Ordered by start, then end; of two
    spans with equal bounds, the one completed later comes first. A
    core's current span completes when the core switches, or at
    {!stop}. *)

val wakeup_latencies_us : t -> float array
(** Wake-to-run latencies observed so far, in microseconds. *)

val wakeup_latencies_of : t -> app:int -> float array
(** Same, restricted to one app's tasks. *)

val running_app : t -> core:int -> int
(** App of the task actually executing on a core right now, or [-1] when
    none is (an idle core, or a balloon group with no member on the CPU). *)

val stop : t -> unit
(** Cancel all armed timers and complete each core's current span (end of
    simulation). A second call does nothing. *)
