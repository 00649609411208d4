(** Generic accelerator (GPU / DSP) with an asynchronous command interface.

    The CPU-side driver dispatches commands into the device; the device
    executes them, possibly overlapping in time when execution units are
    available, and raises a completion interrupt per command. Overlap is what
    makes request boundaries blurry (the paper's Figure 3(b)): the CPU knows
    when a command entered the device and when its completion interrupt
    arrived, but concurrent commands' power impacts entangle in between.

    Frequency is governed by {!Dvfs}; command durations scale with the
    current OPP. An optional autosuspend models the off/suspended state:
    after the device has been idle for the configured span it drops below
    idle power, and the next command pays a resume delay. *)

type command = {
  id : int;
  app : int;  (** owning app id (for billing and balloon enforcement) *)
  kind : string;
  work_s : float;  (** device-seconds of execution at the highest OPP *)
  units : int;  (** execution units occupied while running *)
  intensity : float;  (** power multiplier applied to the per-unit draw *)
  mutable submitted_at : Psbox_engine.Time.t;
  mutable started_at : Psbox_engine.Time.t option;
  mutable finished_at : Psbox_engine.Time.t option;
}

val command :
  app:int -> kind:string -> work_s:float -> ?units:int -> ?intensity:float ->
  unit -> command
(** Fresh command with an id unique within the calling domain; [units]
    defaults to 1, [intensity] to [1.0]. *)

type t

val create :
  Psbox_engine.Sim.t ->
  ?retention:Psbox_engine.Time.span ->
  name:string ->
  units:int ->
  ?opps:Dvfs.opp array ->
  ?governor:Dvfs.governor ->
  ?idle_w:float ->
  ?autosuspend:Psbox_engine.Time.span ->
  unit ->
  t
(** Defaults: a 4-OPP table, ondemand governor (20 ms sampling), 0.1 W idle.
    Autosuspend is disabled unless a span is given; a suspended device
    draws 0.01 W and takes 5 ms to resume. [retention] bounds the
    rail's power history (see {!Power_rail.create}). *)

val name : t -> string
val rail : t -> Power_rail.t
val dvfs : t -> Dvfs.t
val units : t -> int

val submit : t -> command -> unit
(** Dispatch a command to the device. It starts as soon as enough execution
    units are free (FIFO among waiting commands) and completes after its
    scaled duration; {!set_on_complete}'s callback then fires (the completion
    interrupt). *)

val set_on_complete : t -> (command -> unit) -> unit

val in_flight : t -> int
(** Commands dispatched to the device and not yet completed (running or
    waiting for units). *)

val in_flight_of : t -> app:int -> int

val busy_units : t -> int

val busy_unit_seconds : t -> float
(** Cumulative busy unit-time in seconds since simulation start. *)

val active_seconds : t -> float
(** Cumulative non-idle (any unit busy) time in seconds — the governor's
    load notion. *)

val suspended : t -> bool

val suspended_seconds : t -> float
(** Cumulative seconds in the suspended (below-idle) state, including the
    current stretch — a power-state residency counter, like a real driver's
    runtime-PM [suspended_time]. Counter-driven power models
    ({!Psbox_model}) fit the idle/suspend floor split from it. *)

val stop : t -> unit
