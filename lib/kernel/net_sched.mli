(** Fair packet scheduler with psbox temporal balloons for the WiFi NIC.

    Apps deposit packets into per-socket kernel buffers; the scheduler's
    {!Temporal_sched} (reached with {!sched}) dispatches them to the NIC's
    transmission queue one frame at a time in byte-fair order (least
    cumulative sent bytes first, the credit notion of §4.2), and runs the
    same balloon machine as the accelerator drivers, holding foreign
    packets back in their per-socket buffers. Rate gates are in bytes per
    second ([bytes_per_s]) and only gate transmission.

    Lost-opportunity accounting follows the paper: packets that were buffered
    only because of the balloon — up to what the NIC could actually have
    carried in the balloon's airtime — are identified at balloon exit and
    their bytes are charged against the sandboxed app's credit.

    Packet {e reception} cannot be deferred by a commodity NIC: unless the
    NIC supports virtual MACs, foreign receive traffic lands inside open
    balloons and pollutes the sandboxed app's power view (the limitation of
    §4.2/§5). With [virtual_macs] on the {!Psbox_hw.Wifi.t}, foreign RX is
    held back until the balloon closes. *)

type t

val create : Psbox_engine.Sim.t -> Psbox_hw.Wifi.t -> t
val nic : t -> Psbox_hw.Wifi.t

val sched : t -> Psbox_hw.Wifi.pkt Temporal_sched.t
(** The scheduler: balloons, rate gates, the share bus, credits and the
    dispatch and completed-frame histories. *)

val send :
  t ->
  app:int ->
  socket:int ->
  bytes:int ->
  on_sent:(Psbox_hw.Wifi.pkt -> unit) ->
  unit
(** Queue one packet for transmission. *)

val deliver_rx :
  t -> app:int -> socket:int -> bytes:int -> on_rx:(Psbox_hw.Wifi.pkt -> unit) -> unit
(** A packet arrives from the air for [app]. Bypasses the fair scheduler
    (reception is not schedulable), except when the NIC has virtual MACs and
    a foreign balloon is open, in which case it is deferred. *)

val sent_bytes : t -> app:int -> int

val lost_bytes_charged : t -> int
(** Total foreign bytes charged to sandboxed apps as lost opportunities. *)
