(** Sensor-hub model (§8.1).

    A Cortex-M0-class microcontroller that pre-processes power samples so
    the application processor does not have to wake for them. Processing a
    batch occupies the hub for [samples / throughput] and draws its active
    power; it idles at micro-watts otherwise. The paper's argument is that a
    13 mW hub at 32 MHz comfortably handles kilohertz power streams — the
    numbers here are that envelope. Batches arrive through {!process}, which
    {!Psbox_core.Power_events} drives. *)

type t

val create : Psbox_engine.Sim.t -> ?samples_per_sec:float -> unit -> t
(** A hub on a rail named ["sensor-hub"], drawing 13 mW active and 0.2 mW
    idle. Default processing throughput: 250k samples/s. *)

val rail : t -> Psbox_hw.Power_rail.t

val process : t -> samples:int -> on_done:(unit -> unit) -> unit
(** Queue a batch; the hub works through its backlog in FIFO order and
    calls [on_done] when this batch completes. *)

val busy : t -> bool

val processed : t -> int
(** Total samples processed so far. *)

val energy_j : t -> from:Psbox_engine.Time.t -> until:Psbox_engine.Time.t -> float
