(** Piecewise-constant time series with prefix-sum energy.

    A timeline records the value of a quantity (e.g. the power drawn on a
    rail, in watts) as a step function of simulated time. Breakpoints must be
    appended in nondecreasing time order, which is what a simulation
    naturally produces. Alongside each breakpoint the timeline maintains the
    cumulative integral since the first retained breakpoint, so exact window
    integrals ({!integrate}, {!mean}) cost two binary searches plus O(1)
    arithmetic instead of a walk over every breakpoint in the window. *)

type t

val create : ?initial:float -> ?retention:Time.span -> unit -> t
(** [create ~initial ()] starts at value [initial] (default [0.]) from time
    zero. When [retention] is given, history older than roughly that span is
    compacted away automatically as new breakpoints arrive (see {!compact}),
    bounding memory on multi-hour runs; integrals across still-retained
    windows stay exact. Without [retention] the full history is kept.
    @raise Invalid_argument if [retention] is not positive. *)

val retention : t -> Time.span option
(** The [retention] given at {!create}. *)

val set : t -> Time.t -> float -> unit
(** [set tl t v] records that the value becomes [v] at instant [t]. Setting
    at a time earlier than the last breakpoint raises [Invalid_argument];
    setting at exactly the same instant overwrites the previous value for
    that instant. *)

val value_at : t -> Time.t -> float
(** The value in effect at instant [t]. *)

val length : t -> int
(** Number of retained breakpoints. *)

val energy_at : t -> Time.t -> float
(** [energy_at tl t] is the cumulative integral of the step function from
    the origin up to [t], in value-seconds. Stable across {!compact}: the
    energy of discarded breakpoints is folded into a base term, so
    differences of [energy_at] remain exact for any window inside the
    retained horizon. *)

val integrate : t -> Time.t -> Time.t -> float
(** [integrate tl t0 t1] is the exact integral of the step function over
    [\[t0, t1\]] in value-seconds (e.g. joules for a watts timeline),
    computed as [energy_at t1 -. energy_at t0].
    @raise Invalid_argument if [t1 < t0]. *)

val mean : t -> Time.t -> Time.t -> float
(** Time-weighted mean value over an interval. *)

val compact : t -> before:Time.t -> int
(** [compact tl ~before:t] discards breakpoints strictly older than the one
    governing [t], folding their energy into the {!energy_at} base. Returns
    the number of breakpoints dropped. Point queries and integrals earlier
    than the new horizon degrade to the oldest retained value; queries at or
    after it are unaffected. *)

val dropped : t -> int
(** Total breakpoints discarded by compaction so far. *)

val samples :
  t -> period:Time.span -> from:Time.t -> until:Time.t -> (Time.t * float) array
(** [samples tl ~period ~from ~until] resamples the timeline at a fixed
    period, like a DAQ would: one sample at [from], [from+period], ... up to
    and including [until] when aligned. *)

val iter_samples :
  t ->
  period:Time.span ->
  from:Time.t ->
  until:Time.t ->
  f:(Time.t -> float -> unit) ->
  unit
(** Like {!samples} but applies [f time value] to each sample instead of
    building the tuple array, and walks the breakpoint index incrementally
    instead of binary-searching per sample.
    @raise Invalid_argument if [period] is not positive. *)

val fold_intervals :
  t ->
  from:Time.t ->
  until:Time.t ->
  init:'a ->
  f:('a -> Time.t -> Time.t -> float -> 'a) ->
  'a
(** [fold_intervals tl ~from ~until ~init ~f] folds [f acc start stop value]
    over each constant-valued interval intersecting [\[from, until\]],
    clipped to that window, oldest first — {!map_intervals} without the
    intermediate list, for accumulating callers (window energy sums). *)

val map_intervals :
  t -> from:Time.t -> until:Time.t -> f:(Time.t -> Time.t -> float -> 'a) -> 'a list
(** Apply [f start stop value] to each constant-valued interval intersecting
    [\[from, until\]], clipped to that window, oldest first. *)
