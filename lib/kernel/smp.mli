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

    The scheduler reports coscheduling (balloon) intervals to listeners so a
    psbox virtual power meter can attribute rail power. *)

type config = {
  tick : Psbox_engine.Time.span;
      (** minimum preemption granularity (default 1 ms): a running task is
          never preempted on credit grounds sooner than this after dispatch *)
  wakeup_granularity : float;  (** vruntime headroom before wake preemption *)
  ipi_delay : Psbox_engine.Time.span;  (** shootdown propagation (default 5 us) *)
  max_loan : float;
      (** cap on a core's scheduling loan within one coscheduling period
          (default 20 ms of vruntime): bounds how long a balloon can starve
          a waiter on a core where the balloon never loses the credit race *)
  max_period : Psbox_engine.Time.span;
      (** hard bound on one coscheduling period (default 20 ms); a balloon
          that still holds the best credit re-enters immediately *)
  confine_cost : bool;
      (** bill balloon-forced idle to the sandboxed app and settle loans
          (default true — the paper's design; disable only to reproduce the
          ablation) *)
  quota_period : Psbox_engine.Time.span;
      (** refill period for per-app CPU quotas (default 10 ms); see
          {!set_quota} *)
}

val default_config : config

type t

type balloon
(** Handle on a sandboxed app's CPU balloon. *)

val create : Psbox_engine.Sim.t -> Psbox_hw.Cpu.t -> ?config:config -> unit -> t

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

val set_on_task_exit : t -> (Task.t -> unit) -> unit

val app_tasks : t -> app:int -> Task.t list

(** {1 Per-app CPU quotas (power-budget actuation)}

    CFS-bandwidth style throttling: each budgeted app may consume up to
    [quota * quota_period] of runtime per period (so a quota of [1.5] on a
    dual-core machine means one and a half cores' worth of CPU time).
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

val quota_throttled : t -> app:int -> bool
(** The app is currently off the runqueues waiting for a refill. *)

(** {1 Share bus (live attribution)} *)

type share_change = { at : Psbox_engine.Time.t; app : int; share : float }
(** The number of cores currently executing [app] changed; [share] is the
    new count. Idle and balloon-forced-idle cores count for nobody. *)

val share_bus : t -> share_change Psbox_engine.Bus.t
(** Published on every running-app transition, synchronously with the
    scheduling decision — {!Psbox_accounting.Split.live_cpu} subscribes to
    drive usage-proportional attribution without manual share pushes. *)

(** {1 Spatial balloons (psbox support)} *)

val sandbox : t -> app:int -> balloon
(** Enclose an app's tasks in per-core group entities {E}. From now on the
    app only runs inside coscheduling periods.
    @raise Invalid_argument if the app is already sandboxed. *)

val unsandbox : t -> balloon -> unit
(** End any live coscheduling period, release the app's tasks back to normal
    scheduling. *)

val set_balloon_listener : balloon -> on_start:(unit -> unit) -> on_stop:(unit -> unit) -> unit
(** Callbacks at the start/end of each coscheduling period (after shootdown
    completes / at schedule-out), used by the psbox virtual meter. *)

val balloon_intervals : balloon -> (Psbox_engine.Time.t * Psbox_engine.Time.t) list
(** Completed coscheduling periods, oldest first. *)

val balloon_live : balloon -> bool

val total_loan_issued : balloon -> float
(** Cumulative vruntime loaned over all completed periods (diagnostics and
    invariant tests). *)

(** {1 Introspection}

    The scheduling spans and wake latencies keep the entries of the CPU
    rail's retention window (see {!System.create}); without one, they keep
    everything. *)

val sched_trace : t -> (int * int) Psbox_engine.Trace.spans
(** Spans tagged [(core, app)]; [app = -1] is true idle, [-2] is
    balloon-forced idle. *)

val wakeup_latencies_us : t -> float array
(** Wake-to-run latencies observed so far, in microseconds. *)

val wakeup_latencies_of : t -> app:int -> float array
(** Same, restricted to one app's tasks. *)

val running_app : t -> core:int -> int option
(** App of the task actually executing on a core right now (idle = None). *)

val stop : t -> unit
(** Cancel all armed timers (end of simulation). *)

(**/**)

val debug_dump : t -> string
(** Internal diagnostics; subject to change. *)
