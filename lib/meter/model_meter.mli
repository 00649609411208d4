(** Model-based power metering.

    The "other" metering method of §2.2: instead of measuring a rail, infer
    power from software-visible activity with a linear model
    [P = b0 + sum_i (b_i * u_i)] over per-component utilizations. Provided
    both as a baseline to contrast with direct measurement and because the
    paper notes psbox works with either metering method.

    Coefficients can be fitted offline from (utilization, measured power)
    observations by ordinary least squares (normal equations, Gaussian
    elimination) — the way such models are constructed "during development"
    in prior work. The simulator's own training pairs are collected and
    fitted by {!Psbox_model.Model}. *)

type t
(** A fitted linear model. *)

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
