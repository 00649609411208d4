(** Trace recording: a trace of timestamped values.

    An interval is recorded as one value, a {!span}, stamped with its end
    by whoever knows both of its edges. The CPU schedule that Figure 7 of
    the paper draws is kept this way by [Smp].

    {b Retention.} A trace may be given a retention window [R]: every
    append then drops each entry stamped more than [R] before the one
    being appended, so a trace on a long-running machine holds a bounded
    window of history instead of all of it. Stamps must arrive in
    nondecreasing order (simulated time does). Entries live in a {!Ring},
    two array slots each, no more than the list cell a plain append would
    cost. The kernel's per-event histories (in [Smp] and
    [Temporal_sched]) take [R] from the rail retention of the device they
    drive. Without a window, everything is kept. *)

type 'a events

val events : ?retention:Time.span -> unit -> 'a events
(** An empty trace, keeping everything unless [retention] is given.
    @raise Invalid_argument if [retention] is not positive. *)

val emit : 'a events -> Time.t -> 'a -> unit

val to_list : 'a events -> (Time.t * 'a) list
(** Retained events, oldest first. *)

val values : 'a events -> 'a list
(** The retained values without their stamps, oldest first. *)

val count : 'a events -> int
(** Number of retained events. *)

type 'a span = { start : Time.t; stop : Time.t; tag : 'a }
(** A completed interval with a label. *)
