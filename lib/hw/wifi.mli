(** WiFi network interface model (TI WiLink8-like).

    The NIC serializes frames on the air: one packet transmits at a time,
    taking [bytes * 8 / rate + overhead]. Power behaviour follows the classic
    WiFi state machine: a deep power-save state, an awake-idle state, and a
    transmit (or receive) draw on top; after the last frame, the NIC lingers
    awake for a tail period before dropping back to power-save — the classic
    lingering power state that entangles the energy of consecutive
    transmissions from different apps.

    Power states that the paper's psbox virtualizes per sandbox — the TX
    power level and the power-save (tail) state — are exposed as a snapshot
    via {!power_state} / {!restore_power_state}.

    Virtual MAC support mirrors §4.2/§5: when [virtual_macs] is false
    (the WiLink8 case), {!switch_mac} resets the NIC's association with the
    base station and transmission stalls for the reassociation delay, which
    defeats RX insulation; when true, switching is free. *)

type pkt = {
  id : int;
  app : int;  (** owning app id *)
  socket : int;
  bytes : int;
  dir : [ `Tx | `Rx ];
  mutable queued_at : Psbox_engine.Time.t;
  mutable air_start : Psbox_engine.Time.t option;
  mutable air_end : Psbox_engine.Time.t option;
}

val packet : app:int -> socket:int -> bytes:int -> ?dir:[ `Tx | `Rx ] -> unit -> pkt
(** Fresh packet with an id unique within the calling domain; [dir]
    defaults to [`Tx]. *)

type t

val create :
  Psbox_engine.Sim.t ->
  ?retention:Psbox_engine.Time.span ->
  ?name:string ->
  ?rate_mbps:float ->
  ?overhead:Psbox_engine.Time.span ->
  ?tail:Psbox_engine.Time.span ->
  ?ps_w:float ->
  ?awake_w:float ->
  ?tx_levels:float array ->
  ?rx_w:float ->
  ?virtual_macs:bool ->
  ?reassoc_delay:Psbox_engine.Time.span ->
  unit ->
  t
(** Defaults: 40 Mbit/s, 200 us per-frame overhead, 80 ms tail, 0.03 W
    power-save, 0.25 W awake, TX levels [0.5; 0.7; 0.9] W (level 2 initial),
    0.45 W RX, no virtual MACs, 150 ms reassociation. *)

val rail : t -> Power_rail.t

val rate_bps : t -> float
(** The modelled link rate in bits per second. *)

val tail : t -> Psbox_engine.Time.span
(** The power-save tail span. *)

val awake_w : t -> float
val ps_w : t -> float

(** {1 Transmission-mode adaptation}

    Like real rate/aggregation adaptation, the chip raises its transmission
    mode (and with it the TX/RX draw) under sustained channel utilization
    and decays back when traffic quiets. This is a lingering power state: a
    bulk transfer leaves the NIC in a hot mode that inflates the measured
    power of an innocent app's packets — one of the entanglements psbox's
    power-state virtualization removes. *)

val set_mode_adapt : t -> bool -> unit
(** Enable/disable automatic mode (TX level) adaptation (on by default). *)

val freeze_mode : t -> unit
(** Suspend adaptation (while a psbox balloon drives a private state). *)

val thaw_mode : t -> unit

val transmit : t -> pkt -> unit
(** Hand a frame to the NIC; it goes on the air when the channel frees up
    (FIFO) and the NIC is associated. *)

val set_on_sent : t -> (pkt -> unit) -> unit
(** Completion callback (TX-done interrupt), fired per frame. *)

val in_flight : t -> int
(** Frames handed to the NIC and not yet fully sent. *)

val in_flight_of : t -> app:int -> int

val airtime_seconds : t -> float
(** Cumulative on-air seconds since simulation start. *)

val awake : t -> bool

(** {1 Power-state residency counters}

    Cumulative time the chip spent in each power-relevant state, the kind
    of counter a real NIC driver exports ([rx]/[tx] airtime, doze time).
    These are the observables that counter-driven power models
    ({!Psbox_model}) fit against the energy ledger; each includes the
    in-progress state at the current instant. *)

val awake_seconds : t -> float
(** Cumulative seconds out of power-save (awake-idle, TX or RX). *)

val tx_airtime_by_level_seconds : t -> float array
(** Cumulative TX on-air seconds per transmission level (length
    {!tx_level_count}). A frame's airtime is billed to the level in effect
    when it went on the air. *)

val rx_airtime_seconds : t -> float
(** Cumulative RX on-air seconds. *)

val tx_level_count : t -> int

val tx_level_w : t -> int -> float
(** The extra on-air draw of TX level [i] (ground truth, for tests). *)

val rx_w : t -> float

(** {1 Power-state virtualization support} *)

type power_state = { tx_level : int; awake : bool }

val tx_level : t -> int
val set_tx_level : t -> int -> unit
val power_state : t -> power_state
val restore_power_state : t -> power_state -> unit
(** Restoring [awake = false] forces power-save immediately (cancels any
    running tail); [awake = true] wakes the NIC and re-arms the tail. *)

(** {1 Virtual MACs} *)

val virtual_macs : t -> bool
val current_mac : t -> int

val switch_mac : t -> mac:int -> unit
(** No-op if already on [mac]. Without virtual-MAC support this resets the
    association (transmission stalls for the reassociation delay). *)

val associated : t -> bool
