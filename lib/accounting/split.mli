(** Prior-art power accounting heuristics (§2.3, §9).

    Each heuristic divides a rail's metered power among apps from their
    hardware usage. These are the "existing approach" baselines of Figure 6;
    all of them cope with power entanglement {e after} it has occurred,
    which is exactly what the paper shows cannot work.

    All functions return per-app energy in joules over the window, and the
    total attributed energy never exceeds the rail energy. *)

type result = (int * float) list
(** app id -> attributed energy (J). *)

val usage_split :
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** AppScope-style [96]: each instant's power is divided among apps in
    proportion to their hardware usage at that instant (we integrate exactly
    over constant-share segments, i.e. at even finer granularity than the
    paper's favourable 10 us reimplementation). Power during intervals where
    nobody uses the device is attributed to no one. *)

val even_split :
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** V-edge-style [94]: power is split evenly among the apps active at each
    instant, regardless of how much of the device each uses. *)

val last_entity :
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** Eprof-style [70]: power is attributed to the app that used the hardware
    most recently — including lingering-state (tail) power after the app
    stopped, until another app takes over. *)

val shared_baseline :
  Psbox_engine.Timeline.t ->
  idle_w:float ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** Power-Containers-style [81]: power above the idle baseline is divided by
    usage share; the shared baseline is split evenly among active apps. *)

val windowed_by_count :
  ?window:Psbox_engine.Time.span ->
  Psbox_engine.Timeline.t ->
  Usage.span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  result
(** AppScope-style [96] kernel-activity accounting: time is cut into model
    windows (default 100 ms); each window's full energy — including wake
    and tail baselines — is divided among apps in proportion to their
    number of hardware requests (packets, commands) in the window. This is
    how activity-count models over-charge chatty apps whose co-runners
    drive the device into hot states. *)

val total_attributed : result -> float

(** {1 Online splitting}

    The live splitter is the bus-era counterpart of {!usage_split}: it
    subscribes to a rail's power transitions and settles
    [power * share / total_share * dt] into per-app accumulators at every
    boundary, so a query is O(apps) instead of a walk over the full usage
    trace and rail history. Share changes are pushed by whoever multiplexes
    the device (scheduler, driver) via {!live_set_share}. Over the same
    window and share trace it attributes what {!usage_split} computes
    offline, up to rounding. Settling a power transition allocates
    nothing. *)

type live

val live : Psbox_hw.Power_rail.t -> from:Psbox_engine.Time.t -> live
(** Start splitting [rail]'s energy at time [from] (no app is active until
    shares are reported). *)

val live_set_share : live -> at:Psbox_engine.Time.t -> app:int -> float -> unit
(** Report that [app]'s usage share of the device is [share] from [at]
    onwards; 0 removes the app. Events must be fed in time order.
    @raise Invalid_argument on a negative app or share, or time going
    backwards. *)

val live_read : live -> until:Psbox_engine.Time.t -> result
(** Per-app energy attributed from [from] up to [until], sorted by app. *)

val live_detach : live -> unit
(** Unsubscribe from the rail's bus (and the share bus, for auto-wired
    splitters); totals stay readable. *)

(** {2 Auto-wired splitters}

    The SMP scheduler and the device drivers publish their own share
    changes on per-subsystem buses, so live attribution needs no manual
    {!live_set_share} pushes: each constructor subscribes to the right
    share bus and forwards every change. *)

val live_cpu : Psbox_kernel.Smp.t -> from:Psbox_engine.Time.t -> live
(** Split the CPU rail by running-core counts from
    {!Psbox_kernel.Smp.share_bus}. Shares are seeded from whatever is
    on-core at [from], so mid-run attachment starts correct. *)

val live_system : Psbox_kernel.System.t -> from:Psbox_engine.Time.t -> live list
(** One auto-wired splitter per scheduled rail of the machine: the CPU,
    then the GPU, DSP and NIC where present. *)
