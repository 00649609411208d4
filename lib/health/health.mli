(** Streaming health engine.

    The paper's thesis is that power must be observable {e and actionable}
    per principal. The rest of the tree provides the observable half — the
    metrics registry, the audit ledger, the model estimators; this module
    is the actionable half: a rule engine that watches those signals
    continuously on a deterministic evaluation grid and turns breaches into
    an incident lifecycle. One responder acts on firing incidents: the
    recalibration inside {!Self_heal}, which refits a drifted model and
    hot-swaps it under the estimator. The engine is the tree's only judge
    of those signals: the model estimator publishes its error gauges, and
    the [model.drift] rule of {!default_pack} alone decides that a model
    has drifted.

    Determinism contract: evaluations land on the fixed grid
    [epoch + k*period] of a {!Psbox_engine.Sim.timer} made with the
    engine, demand-armed like the budget controller's control tick (an
    engine with no rules schedules nothing; an evaluation re-arms after it
    has run). Metric signals are read in the simulator's metric store
    ({!Psbox_engine.Sim.metrics}), the one its machine writes, whichever
    store is current when the loop runs. The incident log is a pure
    function of the run's event history — same seed, same bytes — and rule
    evaluation is a pure observer; only {!Self_heal}'s responder acts. *)

(** {1 Signals}

    What a threshold rule watches: a registered metric's current value, or
    an arbitrary named probe — the escape hatch for invariants that are not
    a single metric, e.g. the audit-vs-ledger conservation comparison. *)
type signal = Metric of string | Probe of string * (unit -> float option)

(** {1 Rules}

    Three kinds: a signal over a threshold, a metric gone absent, and a
    multi-window SLO burn. Each carries hysteresis re-arm: once an incident
    fires, the rule re-arms (resolving the incident) only when the signal
    has cleared the threshold by a 20% margin (below [0.8 * limit]), so one
    sustained excursion yields exactly one incident.

    Every combinator rejects a NaN parameter with [Invalid_argument
    "Health.<fn>: NaN <param>"]: a comparison against NaN is always false,
    so such a rule would silently never fire. Infinite limits stay valid. *)

type rule

val rule_name : rule -> string

val threshold :
  name:string -> ?subject:string -> ?for_windows:int -> signal -> float -> rule
(** [threshold ~name signal limit] breaches when the signal exceeds
    [limit] on [for_windows] consecutive evaluations (default 1).
    [subject] defaults to the signal's label; incidents are deduplicated
    per rule x subject.
    @raise Invalid_argument if [for_windows] is below 1. *)

val absence : name:string -> ?subject:string -> ?stale_windows:int -> string -> rule
(** [absence ~name metric] breaches when [metric] has been unregistered or
    unchanged for [stale_windows] consecutive evaluations (default 4) — a
    dead-man switch for instrumentation that should always move. Resolves
    as soon as the metric moves again.
    @raise Invalid_argument if [stale_windows] is below 1. *)

val burn_rate : bad:float -> total:float -> slo:float -> float
(** [(bad / total) / slo] with zero-guarding: how many times faster than
    the error budget allows the bad events are arriving. 1.0 = burning
    exactly at budget; 14.4 = a 30-day budget gone in 50 hours. *)

val slo_burn :
  name:string ->
  ?subject:string ->
  bad:string ->
  total:string ->
  slo:float ->
  ?short_windows:int ->
  ?long_windows:int ->
  ?factor:float ->
  unit ->
  rule
(** Multi-window SLO burn rule over two cumulative counters: breaches when
    the {!burn_rate} over the last [short_windows] (default 4) {e and} the
    last [long_windows] (default 16) evaluations both exceed [factor]
    (default 2.0) — the short window gives fast detection, the long window
    suppresses blips. Needs [long_windows + 1] samples before it can
    breach.
    @raise Invalid_argument unless [1 <= short_windows <= long_windows]
    and [slo] and [factor] are positive. *)

(** {1 Incidents}

    One incident per rule x subject excursion: [pending] when the raw
    condition first breaches, [firing] once it has held for the rule's
    for-duration, [resolved] when the hysteresis margin clears (or the
    condition retreats before firing).
    Every transition is counted under [health.*] self-metrics and traced
    as an instant on the ["health"] track. *)
type incident = private {
  i_id : int;  (** 1-based, in open order *)
  i_rule : string;
  i_subject : string;
  i_opened_s : float;
  mutable i_fired_s : float option;  (** [None]: retreated while pending *)
  mutable i_resolved_s : float option;  (** [None]: still open *)
  mutable i_peak : float;  (** worst signal value observed while open *)
  mutable i_evals : int;
}

(** {1 The engine} *)

type t

val create : Psbox_engine.Sim.t -> ?period:Psbox_engine.Time.span -> unit -> t
(** A fresh engine on [sim]'s clock, evaluating every [period] (default
    50 ms) from the grid epoch [Sim.now sim]. Schedules nothing until the
    first rule is added.
    @raise Invalid_argument if [period] is not positive. *)

val add_rule : t -> rule -> unit
(** @raise Invalid_argument after {!stop}. *)

val add_rules : t -> rule list -> unit

val eval_now : t -> unit
(** Evaluate every rule once at the current sim time, off the grid — a
    hook for tests and end-of-run flushes. Grid evaluations are unaffected
    (streak counting is per-evaluation, not per-wall-time). *)

val stop : t -> unit
(** Cancel the pending evaluation; the engine never evaluates again.
    Incident history stays readable. *)

val evals : t -> int

val incidents : t -> incident list
(** All incidents ever opened, oldest first. *)

val open_incidents : t -> incident list

val incident_counts : t -> (string * int) list
(** Fired (not merely pending) incidents per rule name, sorted by name —
    the fleet-reduction record. *)

val json : t -> string
(** Deterministic incident-log JSON: fixed field order, [%.6f] floats, no
    wall clock, names quoted by {!Psbox_telemetry.Json.quote}. *)

(** {1 Default rule pack}

    The rules [psbox_sim] wires in: per-rail model drift ([model.drift], a
    threshold of [drift_threshold_pct], default 5, on the estimator's
    [model.rail.<r>.mape_pct] gauges, held for
    {!Psbox_model.Model.Estimator.mape_windows} evaluations so the gauge's
    window is full before an incident fires), cap-violation SLO burn
    ([budget.cap_violations] / [budget.ticks] against a 5% SLO, factor
    2.0), a dead-metric absence watchdog on [sim.events_fired], and — when
    an audit ledger is attached to [sys] — an audit-vs-kernel-ledger
    conservation probe that must never fire.
    @raise Invalid_argument on a [drift_threshold_pct] that is NaN,
    infinite or at most 0. *)
val default_pack :
  ?drift_threshold_pct:float -> Psbox_kernel.System.t -> rule list

(** {1 Self-healing estimation check}

    The end-to-end drift-injection demo behind [psbox_sim health-check]:
    fit ground-truth models on one {!Psbox_model.Model.Check.record} run,
    perturb them, run a fresh seed under the perturbed estimator with the
    default rule pack and the recalibration responder, and measure the
    held-out MAPE of the hot-swapped model on the windows after the
    incident fired. *)
module Self_heal : sig
  type rail_heal = {
    rh_rail : string;
    rh_pre_mape_pct : float;  (** drifted model, full validation trace *)
    rh_post_mape_pct : float;  (** live model, windows after the fire *)
    rh_fired_s : float option;
    rh_swapped : bool;
  }

  type report = {
    sh_fit_seed : int;
    sh_val_seed : int;
    sh_window_ms : float;
    sh_windows : int;
    sh_perturb_pct : float;
    sh_drift_threshold_pct : float;
    sh_rails : rail_heal list;
    sh_incidents_fired : int;
    sh_swaps : int;
    sh_post_max_mape_pct : float;  (** the [--max-mape] gate value *)
  }

  val run :
    ?fit_seed:int ->
    ?val_seed:int ->
    ?window:Psbox_engine.Time.span ->
    ?windows:int ->
    ?perturb_pct:float ->
    ?drift_threshold_pct:float ->
    unit ->
    report * t
  (** Returns the report and the (stopped) engine whose {!json} is the
      incident log. Defaults: seeds 11/23 (as [model-check]), 60 windows
      of 50 ms, no perturbation, the {!default_pack} drift threshold.
      @raise Invalid_argument on a [perturb_pct] that is NaN, infinite
      or at most -100, or a [drift_threshold_pct] that is NaN, infinite or
      at most 0. *)

  val json : report -> string
  (** Deterministic JSON, same conventions as the incident log. *)
end
