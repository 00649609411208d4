(** Power-budget control plane (§6 "power-centric resource management").

    The paper's sandboxed accounting makes per-app draw a trustworthy
    signal; this module closes the loop on it. A controller subscribes to
    the machine's attributed power — via the auto-wired
    {!Psbox_accounting.Split.live_system} splitters —
    and enforces per-app {e caps} (watts) by actuating every subsystem the
    app draws through:

    - CPU: a CFS-bandwidth-style runtime quota
      ({!Psbox_kernel.Smp.set_quota}),
    - accelerators and network: a leaky-bucket dispatch rate on the
      device's scheduler ({!Psbox_kernel.Temporal_sched.set_rate}), in
      unit-seconds per second for an accelerator and TX bytes per second
      for the NIC.

    The control law is a deterministic, sim-clock-periodic
    multiplicative-proportional loop with a hysteresis deadband: each
    period the app's last-period draw is compared against its cap;
    overshoot scales one throttle level (in [0.02, 1.0]) down by the
    overshoot ratio (at most halving it), comfortable undershoot relaxes
    it back up by the undershoot ratio (at most +10% per period).
    At a throttle of 1.0 every knob is released ([None]), so a machine
    with no budgets configured replays the exact event sequence it would
    without a controller.

    Admission control ({!admit}) tracks declared demand against an
    optional machine budget, with a strict-FIFO wait queue drained
    head-first on {!release}. *)

type t

type admission = Admitted | Queued | Rejected

val create :
  Psbox_kernel.System.t ->
  ?machine_budget_w:float ->
  unit ->
  t
(** Attach a controller to a machine, with a 50 ms control period, a
    4-period measurement window and a 5% hysteresis band. Default: no
    machine budget (admission always admits). Splitters are wired to
    whatever rails the machine has; the first budget arms the control tick,
    a {!Psbox_engine.Sim.timer} on the machine's simulator whose grid starts
    here. A tick runs while some app has a budget and re-arms after its
    control step. *)

val set_cap : t -> app:int -> watts:float -> unit
(** Cap [app]'s windowed mean attributed draw at [watts], raising or
    lowering any cap it had. Takes effect at the next control tick.
    [infinity] is a cap that never binds.
    @raise Invalid_argument if [app] or [watts] is negative, or [watts]
    is NaN. *)

val measured_w : t -> app:int -> float
(** [app]'s windowed mean attributed draw, watts (0 before the first
    control tick, or if the app has no budget). *)

val effective_cap_w : t -> app:int -> float
(** The cap the controller is currently steering to, watts: the last
    {!set_cap}, [infinity] for an unbudgeted app. *)

val throttle : t -> app:int -> float
(** Current actuation level in [0.02, 1.0]; 1.0 means unthrottled. *)

val history : t -> app:int -> (Psbox_engine.Time.t * float * float) list
(** Per-tick trace [(time, measured_w, effective_cap_w)] in time order —
    the convergence record the [budget] experiment plots. *)

val stop : t -> unit
(** Cancel the control tick, release every actuator and detach the
    splitters. Idempotent. *)

(** {1 Admission control}

    Declared-demand bookkeeping against an optional machine budget.
    Reservations are watts promised, not watts measured; the control loop
    above enforces that promises hold. *)

val set_machine_budget : t -> float option -> unit
(** @raise Invalid_argument if the budget is negative or NaN (so is a
    [create ?machine_budget_w]). *)

val set_admission_estimate : t -> (int -> float option) option -> unit
(** Wire in a modeled-draw oracle (typically
    [Psbox_model.Model.Estimator.app_est_w]): while set, each reservation
    is charged [min declared (oracle app)] watts against the machine
    budget instead of the bare declaration — admission against modeled
    history, not claims. The declaration stays recorded as the contract;
    the gap is published as the [budget.admission.overdeclared_w] gauge.
    An oracle returning [None] (no history yet) falls back to the
    declared watts. Queued requests are re-priced when the drain
    re-examines them. *)

val remaining_w : t -> float
(** Machine budget minus all effective reservations; [infinity] when no
    budget is set. *)

val admit : t -> app:int -> watts:float -> ?queue:bool -> unit -> admission
(** Reserve [watts] for [app]. Fits the remaining budget → [Admitted]
    (reservation recorded). Doesn't fit and [queue] (default false) →
    [Queued]: the request waits in FIFO order until a later {!release}
    makes room, when {!admitted} turns true. Otherwise [Rejected].
    @raise Invalid_argument if [app] already holds a reservation, or if
    [watts] is negative or NaN. *)

val release : t -> app:int -> unit
(** Drop [app]'s reservation and drain the wait queue head-first: queued
    requests are admitted in arrival order, stopping at the first one
    that still doesn't fit (no sneaking past a large waiter). *)

val admitted : t -> app:int -> bool

val reservation : t -> app:int -> (float * float) option
(** [app]'s current reservation as [(declared_w, effective_w)], if any.
    The two differ only when an admission estimate is wired in and the
    modeled draw undercuts the declaration. *)

val queued : t -> int
(** Requests currently waiting. *)
