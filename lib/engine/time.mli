(** Simulated time.

    All simulation time is kept as an integer number of nanoseconds since the
    start of the simulation. 63-bit integers give a range of roughly 146
    years, far beyond any scenario in this repository. Spans (durations) use
    the same representation. *)

type t = int
(** An instant, in nanoseconds since simulation start. *)

type span = int
(** A duration, in nanoseconds. *)

val zero : t

val us : int -> span
(** [us n] is a span of [n] microseconds. *)

val ms : int -> span
(** [ms n] is a span of [n] milliseconds. *)

val sec : int -> span
(** [sec n] is a span of [n] seconds. *)

val of_sec_f : float -> span
(** [of_sec_f s] converts a duration in (possibly fractional) seconds,
    rounding to the nearest nanosecond. *)

val to_sec_f : t -> float
(** [to_sec_f t] is [t] expressed in seconds. *)

val to_us_f : t -> float
(** [to_us_f t] is [t] expressed in microseconds. *)

val to_ms_f : t -> float
(** [to_ms_f t] is [t] expressed in milliseconds. *)

val pp : Format.formatter -> t -> unit
(** Pretty-print an instant with an adaptive unit (ns/us/ms/s). *)
