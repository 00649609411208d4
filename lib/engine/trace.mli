(** Trace recording.

    Two recorders are provided: a point-event trace (timestamped values) and
    an interval trace (labelled spans with a start and an end), used for
    scheduling and command-dispatch timelines like the ones shown in Figure 7
    of the paper.

    {b Retention.} Either recorder may be given a retention window [R]:
    every append then drops each entry stamped more than [R] before the one
    being appended, so a recorder on a long-running machine holds a bounded
    window of history instead of all of it. An event is stamped with its
    instant, a completed span with its end. Stamps must arrive in
    nondecreasing order (simulated time does). Entries live in a {!Ring},
    two array slots each, no more than the list cell a plain append would
    cost. The kernel's per-event histories (in [Smp], [Accel_driver] and
    [Net_sched]) take [R] from the rail retention of the device they
    drive. Without a window, everything is kept. *)

(** {1 Point events} *)

type 'a events

val events : ?retention:Time.span -> unit -> 'a events
(** An empty recorder, keeping everything unless [retention] is given.
    @raise Invalid_argument if [retention] is not positive. *)

val emit : 'a events -> Time.t -> 'a -> unit

val to_list : 'a events -> (Time.t * 'a) list
(** Retained events, oldest first. *)

val values : 'a events -> 'a list
(** The retained values without their stamps, oldest first. *)

val count : 'a events -> int
(** Number of retained events. *)

(** {1 Interval spans} *)

type 'a span = { start : Time.t; stop : Time.t; tag : 'a }

type 'a spans

val spans : ?retention:Time.span -> unit -> 'a spans
(** An empty recorder, keeping every completed span unless [retention] is
    given; open spans are never dropped.
    @raise Invalid_argument if [retention] is not positive. *)

val open_span : 'a spans -> Time.t -> 'a -> unit
(** Begin a span with tag ['a]. Multiple spans with distinct tags may be open
    simultaneously; opening a tag that is already open is an error. *)

val close_span :
  ?pp:(Format.formatter -> 'a -> unit) -> 'a spans -> Time.t -> 'a -> unit
(** Close the open span carrying this tag.

    @raise Invalid_argument if no span with this tag is open. The message
    names the offending tag when a [?pp] printer is supplied (and says so
    when one is not), plus how many spans are currently open — pass [?pp]
    wherever a mismatched close would otherwise be hard to attribute. *)

val is_open : 'a spans -> 'a -> bool

val open_since : 'a spans -> 'a -> Time.t option
(** Start time of the live span carrying this tag, if one is open. *)

val close_all : 'a spans -> Time.t -> unit
(** Close every still-open span at the given instant. *)

val to_spans : 'a spans -> 'a span list
(** Retained completed spans, ordered by start time, then end time; of two
    spans with equal bounds, the one completed later comes first. *)

val total_duration : 'a spans -> ('a -> bool) -> Time.span
(** Summed duration of retained completed spans whose tag satisfies the
    predicate. *)

val overlaps : 'a span -> 'a span -> bool
(** Whether two spans intersect for a strictly positive duration. *)
