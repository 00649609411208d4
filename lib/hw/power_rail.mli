(** A measurable power rail.

    Each hardware component drives exactly one rail; this mirrors the paper's
    prototype where CPU, GPU, DSP and the WiFi module each sit behind a
    distinct rail of the in-situ power meter. The rail keeps the full
    piecewise-constant power history so energy can be integrated exactly and
    a DAQ can resample it at any rate, and it announces every power
    transition on a {!Psbox_engine.Bus}, so meters, accountants and
    governors can subscribe instead of polling the history. *)

type draws = private { mutable before_w : float; mutable after_w : float }
(** The draws around a transition, in watts (float-only, so the rail
    rewrites them without boxing). *)

type transition = private {
  rail_name : string;
  mutable at : Psbox_engine.Time.t;
  draws : draws;
}
(** One power transition: at instant [at] the draw changed from
    [draws.before_w] to [draws.after_w] watts.

    Each rail allocates one record when it is made and rewrites it for
    every transition, so a record is valid only while it is being
    delivered. A subscriber reads the fields it needs during delivery and
    copies what it keeps, and must never set the same rail's power from
    inside that rail's delivery: the nested transition would rewrite the
    record under the subscribers still to be called. *)

type t

val create :
  ?retention:Psbox_engine.Time.span ->
  ?floor_w:float ->
  Psbox_engine.Sim.t ->
  name:string ->
  idle_w:float ->
  t
(** A rail whose draw starts at [idle_w] watts. [retention] bounds how much
    power history the rail keeps (see {!Psbox_engine.Timeline.create});
    omitted, the full history is retained.

    [floor_w] (default [idle_w]) is the rail's {e deepest} reachable draw —
    the power of the device's lowest power state (e.g. an accelerator's
    runtime-suspended draw, below its clocked-but-idle [idle_w]). Anything
    between [floor_w] and [idle_w] with nobody using the device is a
    {e lingering} power state in the paper's sense, and the audit ledger
    classifies it as such. @raise Invalid_argument if above [idle_w]. *)

val name : t -> string

val idle_w : t -> float
(** The rail's baseline (idle) draw in watts. *)

val floor_w : t -> float
(** The rail's deep-idle floor (see {!create}); equals {!idle_w} for
    devices without a deeper power state. *)

val set_power : t -> float -> unit
(** Record the rail's instantaneous draw changing to the given watts at the
    current simulated time. If the draw actually changes, the rail's
    {!transition} record is rewritten and published on {!transitions} after
    the history is updated. *)

val power : t -> float
(** The current draw in watts (O(1)). *)

val energy_j : t -> from:Psbox_engine.Time.t -> until:Psbox_engine.Time.t -> float
(** Exact energy over a window, in joules. *)

val timeline : t -> Psbox_engine.Timeline.t
(** The underlying power history. *)

val transitions : t -> transition Psbox_engine.Bus.t
(** The rail's transition bus. Subscribers are invoked synchronously, in
    subscription order, every time the draw changes, with the rail's one
    reused record (see {!transition}). *)
