(** Simulated data-acquisition unit (MCCDAQ USB1608G-like).

    The DAQ samples one or more power rails at a fixed rate (100 kHz in the
    paper's prototype) and timestamps each sample. Because the simulator
    keeps exact piecewise-constant rail histories, sampling is synthesized on
    demand from the history rather than by scheduling one event per sample;
    optional Gaussian measurement noise models the ADC front end. Timestamps
    are in the simulation clock: the prototype's GPIO alignment of the DAQ
    clock with the target's is taken as exact, so no clock model sits
    between the two. *)

type t

val create :
  ?rate_hz:int ->
  ?noise_w:float ->
  ?rng:Psbox_engine.Rng.t ->
  unit ->
  t
(** Defaults: 100 kHz, no noise. [noise_w] is the standard deviation of
    additive Gaussian noise per sample; it requires [rng]. *)

val period : t -> Psbox_engine.Time.span

val capture :
  t ->
  Psbox_hw.Power_rail.t ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  Sample.t array
(** Timestamped samples of a rail over a window. *)
