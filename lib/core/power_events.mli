(** App-defined power events (§8.2).

    Instead of polling its virtual power meter, an app subscribes to
    temporal predicates over the psbox sample stream — "power above 1 W for
    5 ms", "a 0.5 W spike", "power keeps rising" — the way today's apps
    register sensor listeners. Evaluation can be offloaded to a
    {!Psbox_meter.Sensor_hub}, in which case the hub's processing cost and
    latency are modelled and charged to the hub's own rail.

    Predicates are evaluated over the samples of each polling period while
    the app is inside its psbox (there is nothing to observe outside);
    {!evaluate} is the pure core and is usable on any sample train. *)

type predicate =
  | Above of { watts : float; lasting : Psbox_engine.Time.span }
      (** power continuously above [watts] for at least [lasting] *)
  | Below of { watts : float; lasting : Psbox_engine.Time.span }
  | Spike of { delta_w : float; within : Psbox_engine.Time.span }
      (** power rises by at least [delta_w] within [within] *)
  | Rising of { lasting : Psbox_engine.Time.span }
      (** power nondecreasing (and net increasing) for [lasting] *)

val evaluate : predicate -> Psbox_meter.Sample.t array -> Psbox_engine.Time.t option
(** First instant at which the predicate is satisfied, if any. *)

type subscription

val subscribe :
  ?hub:Psbox_meter.Sensor_hub.t ->
  Psbox_kernel.System.t ->
  Psbox.t ->
  predicate:predicate ->
  (Psbox_engine.Time.t -> unit) ->
  subscription
(** Evaluate the predicate over each 50 ms polling period of psbox
    samples taken at a 1 ms period; the callback receives the
    trigger instant, at most once per period. With [hub], evaluation
    completes only after the hub has chewed through the batch (its power
    shows on the hub rail). *)

val cancel : subscription -> unit

val fired : subscription -> int
(** How many times the callback has fired. *)
