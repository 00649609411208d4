(** Descriptive statistics over float samples. *)

val mean : float array -> float
(** Arithmetic mean. [nan] on empty input. *)

val stddev : float array -> float
(** Sample standard deviation (n-1 denominator); [0.] for fewer than two
    samples. *)

val min : float array -> float
val max : float array -> float
val sum : float array -> float

val percentile : float array -> float -> float
(** [percentile xs p] with [p] in [\[0,100\]], linear interpolation between
    order statistics. Does not mutate its input. *)

val median : float array -> float

type histogram = { lo : float; hi : float; counts : int array }

val histogram : float array -> bins:int -> histogram
(** Fixed-width histogram between the sample min and max.
    @raise Invalid_argument if [bins <= 0] or the input is empty. *)
