(** Fair packet scheduler with psbox temporal balloons for the WiFi NIC.

    Apps deposit packets into per-socket kernel buffers; the scheduler
    dispatches them to the NIC's transmission queue in byte-fair order (least
    cumulative sent bytes first, the credit notion of §4.2). When an app is
    sandboxed, the scheduler runs the same drain/flush/serve/drain/flush
    machine as the accelerator drivers, holding foreign packets back in
    their per-socket buffers.

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

val create : Psbox_engine.Sim.t -> Psbox_hw.Wifi.t -> ?window:int -> unit -> t
(** [window] is how many frames the driver keeps handed off to the NIC at
    once (default 1: the driver paces the uniform transmission queue and
    keeps strict credit order; larger values model in-NIC aggregation at
    the cost of coarser fairness). *)

val nic : t -> Psbox_hw.Wifi.t

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

val pending : t -> app:int -> int
val sent_bytes : t -> app:int -> int
val credit : t -> app:int -> float

(** {1 Per-app rate gates (power-budget actuation)}

    A leaky-bucket limiter on packet dispatch: an app with a rate of [r]
    may put at most [r] bytes per second on the air, averaged at frame
    granularity. Gated apps keep their queue ordering and byte-fair
    credit; they sit out the pick until the gate reopens (a dedicated
    wakeup re-pumps the scheduler). RX is never gated — reception is not
    schedulable — and the sandboxed app is exempt. *)

val set_rate : t -> app:int -> float option -> unit
(** [set_rate d ~app (Some r)] caps transmission at [r] bytes per second
    (clamped to a tiny positive floor); [None] removes the gate. *)

val rate : t -> app:int -> float option

val gated_until : t -> app:int -> Psbox_engine.Time.t option

(** {1 Share bus (live attribution)} *)

type share_change = { at : Psbox_engine.Time.t; app : int; share : float }
(** The app's in-flight frame count at the NIC changed; [share] is the new
    count. *)

val share_bus : t -> share_change Psbox_engine.Bus.t
(** Published at every dispatch and TX/RX completion, so
    {!Psbox_accounting.Split.live_net} can attribute NIC power without
    manual share pushes. *)

(** {1 Temporal balloons} *)

val sandbox : t -> app:int -> unit
val unsandbox : t -> unit
val sandboxed : t -> int option
val set_balloon_listener : t -> on_start:(unit -> unit) -> on_stop:(unit -> unit) -> unit
val balloon_intervals : t -> (Psbox_engine.Time.t * Psbox_engine.Time.t) list
val balloon_open : t -> bool

val lost_bytes_charged : t -> int
(** Total foreign bytes charged to sandboxed apps as lost opportunities. *)

(** {1 Diagnostics}

    Both histories keep the entries of the NIC rail's retention window
    (see {!System.create}); without one, they keep everything. *)

val dispatch_latencies_us : t -> (int * float) list
(** (app, enqueue-to-NIC latency in microseconds) per packet, oldest
    first. *)

val packet_log : t -> Psbox_hw.Wifi.pkt list
(** Completed frames with airtime timestamps, oldest first. *)
