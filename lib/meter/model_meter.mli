(** Model-based power metering.

    The "other" metering method of §2.2: instead of measuring a rail, infer
    power from software-visible activity with a linear model
    [P = b0 + sum_i (b_i * u_i)] over per-component utilizations. Provided
    both as a baseline to contrast with direct measurement and because the
    paper notes psbox works with either metering method.

    Coefficients can be fitted offline from (utilization, measured power)
    observations by ordinary least squares (normal equations, Gaussian
    elimination) — the way such models are constructed "during development"
    in prior work. *)

type t
(** A fitted or hand-written linear model. *)

val of_coeffs : intercept:float -> float array -> t

val intercept : t -> float

val coeffs : t -> float array

val predict : t -> float array -> float
(** [predict m utils] is the modelled watts for one utilization vector.
    @raise Invalid_argument on dimension mismatch. *)

val fit : (float array * float) list -> t
(** Least-squares fit. All observation vectors must share one dimension;
    needs at least [dim + 1] observations.
    @raise Invalid_argument on degenerate input. *)

val rmse : t -> (float array * float) list -> float
(** Root-mean-square prediction error over a dataset. *)

val solve :
  floor:float -> singular:string -> float array array -> float array -> float array
(** [solve ~floor ~singular a b] solves the square system [a x = b] by
    Gaussian elimination with partial pivoting, overwriting [a] and [b].
    A pivot below [floor] in magnitude counts as singular: {!fit} uses
    1e-12, which rejects collinear utilizations; a ridge-regularised fit
    needs a lower floor so its pinned zero columns pass.
    @raise Invalid_argument with message [singular] on a singular system. *)

(** {1 Bus-fed training collection}

    A collector subscribes to a power-transition bus and snapshots the
    utilization vector at every transition, paired with the total draw after
    the change — the training pairs arrive exactly when power actually
    moved, instead of being polled on a timer and aligned by timestamp. *)

type collector

val collector :
  Psbox_hw.Power_rail.transition Psbox_engine.Bus.t ->
  initial_w:float ->
  utils:(unit -> float array) ->
  collector
(** [collector bus ~initial_w ~utils] starts recording. [initial_w] is the
    current total draw of the rails feeding [bus] (e.g.
    [System.live_power_w]); the collector maintains the running total from
    transition deltas. *)

val observations : collector -> (float array * float) list
(** Pairs in arrival order, ready for {!fit} / {!rmse}. *)

val observation_count : collector -> int

val fit_collected : collector -> t
(** Least-squares fit over everything collected so far.
    @raise Invalid_argument if there are too few observations. *)

val collector_detach : collector -> unit
