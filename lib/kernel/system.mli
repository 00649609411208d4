(** A whole simulated machine: hardware, kernel subsystems, apps.

    Two presets mirror the paper's evaluation platforms (Figure 4):
    {!am57} — dual-core CPU + GPU + DSP behind separate rails — and
    {!bbb} — single-core CPU + WiFi module. Arbitrary combinations can be
    assembled with {!create}. *)

type count = { mutable v : float }
(** A float-only record, so a bump stores its float unboxed. *)

type app = {
  app_id : int;
  app_name : string;
  counters : (string, count) Hashtbl.t;  (** throughput/work counters *)
}

type t

val create :
  ?seed:int ->
  ?cores:int ->
  ?cpu_governor:Psbox_hw.Dvfs.governor ->
  ?cpu_idle_w:float ->
  ?confine_cost:bool ->
  ?gpu:bool ->
  ?gpu_governor:Psbox_hw.Dvfs.governor ->
  ?dsp:bool ->
  ?wifi:bool ->
  ?wifi_virtual_macs:bool ->
  ?display:bool ->
  ?gps:bool ->
  ?rail_retention:Psbox_engine.Time.span option ->
  unit ->
  t
(** Defaults: seed 42, 2 cores, ondemand CPU governor, no devices.
    [confine_cost] (default true) is the paper's lost-sharing billing; it
    exists as a switch only for the ablation bench.

    [rail_retention] bounds every rail's power-transition history (default
    [Some 120 s]), and with it the kernel's per-event histories: the
    scheduler's spans and wake latencies, the accelerator drivers' command
    logs and dispatch latencies, and the network scheduler's packet log and
    dispatch latencies keep only the entries of the last [rail_retention]
    (see {!Psbox_engine.Trace}). Long-running machines stop accumulating
    memory, while anything shorter than the retention window — including
    every experiment shipped in this repo — sees byte-identical behaviour
    and histories, because nothing is dropped before it. Budget histories
    and psbox balloon intervals are not bounded. Pass [None] to keep full
    history (e.g. when a test inspects old transitions). *)

val am57 : unit -> t
(** Dual Cortex-A15-like CPU + SGX544-like GPU + C66x-like DSP, seed 42. *)

val bbb : ?seed:int -> unit -> t
(** Single-core CPU + WiLink8-like WiFi (no virtual MACs). *)

val phone : unit -> t
(** A smartphone-flavoured machine beyond the paper's prototypes: dual-core
    CPU + GPU + WiFi (with virtual MACs) + OLED display + GPS — the §7
    extension hardware. *)

val sim : t -> Psbox_engine.Sim.t
val rng : t -> Psbox_engine.Rng.t
val cpu : t -> Psbox_hw.Cpu.t
val smp : t -> Smp.t

val gpu : t -> Accel_driver.t
(** @raise Invalid_argument if the machine has no GPU. *)

val dsp : t -> Accel_driver.t
(** @raise Invalid_argument if the machine has no DSP. *)

val net : t -> Net_sched.t
(** @raise Invalid_argument if the machine has no WiFi. *)

val display : t -> Psbox_hw.Display.t
(** @raise Invalid_argument if the machine has no display. *)

val gps : t -> Psbox_hw.Gps.t
(** @raise Invalid_argument if the machine has no GPS. *)

val has_gpu : t -> bool
val has_dsp : t -> bool
val has_wifi : t -> bool
val has_display : t -> bool
val has_gps : t -> bool

val rails : t -> Psbox_hw.Power_rail.t list
(** All metered rails (CPU first, then GPU/DSP/WiFi as present). *)

(** {1 Power bus}

    The machine's instrumentation spine, wired up at {!create} (the
    composition root): the energy ledgers subscribe to each physical
    rail's own transition bus, and every metered rail then forwards its
    transitions onto one shared bus. Outside observers subscribe there
    instead of polling rail histories; hot-path consumers, like the
    ledgers, subscribe to {!Psbox_hw.Power_rail.transitions} directly. *)

val power_bus : t -> Psbox_hw.Power_rail.transition Psbox_engine.Bus.t
(** The machine-wide power-transition bus. Carries the physical rails plus
    the lazily-created per-app attribution rails of the display and GPS
    (hot-joined at creation). Attribution rails are recognizable by the
    ["<physical>.app<id>"] naming convention; the joule audit reads them
    here as share feeds, and no energy ledger counts them, which would
    double-count their physical rail. *)

val live_power_w : t -> float
(** Current draw summed over all metered rails, maintained O(1) by
    subscribers on the rails' buses. *)

val live_energy_j : t -> float
(** Total energy drawn by all metered rails since boot, in joules —
    answered from the bus-fed ledger in O(1), independent of how much rail
    history exists. *)

val rail_energy_j : t -> name:string -> float
(** Energy drawn by one physical rail since boot, in joules, from a per-rail
    O(1) ledger settled on that rail's own transitions. This is the reference
    value the audit ledger ({!Psbox_audit.Audit}) must reproduce bit-for-bit.
    @raise Invalid_argument on an unknown rail name. *)

val rail_energy_table : t -> (string * float) list
(** [rail_energy_j] for every physical rail, sorted by rail name. *)

val uid : t -> int
(** Id of this machine instance, unique within the domain that built it
    (boot order, from 1). *)

(** A side table keyed by machine, for state an optional observer keeps
    per machine without the kernel knowing of it (the audit ledger's
    attach memo, the psbox registry). Keys compare physically and hash by
    {!uid}. A binding holds its machine only weakly: a machine nobody else
    references stays collectable, and the table drops its dead bindings
    when it next resizes. Keep one table per domain. *)
module Side_table : Ephemeron.S with type key = t

val on_boot : (t -> unit) -> unit
(** Register a hook run at the end of every subsequent {!create}, observing
    the fully wired machine. This is how optional cross-cutting observers
    (e.g. the audit ledger) attach to every system a process builds without
    the kernel depending on them. Hooks run in registration order and are
    never unregistered — make them cheap no-ops when disabled. *)

(** {1 Apps} *)

val new_app : t -> name:string -> app
val apps : t -> app list
val app_by_id : t -> int -> app option

val bump : app -> string -> float -> unit
(** Add to a named counter (e.g. frames, bytes, commands). *)

val counter : app -> string -> float

(** {1 Running} *)

val start : t -> unit
(** Start the scheduler. Call once, before or after spawning tasks. *)

val run_for : t -> Psbox_engine.Time.span -> unit
(** Advance the simulation by a span. *)

val now : t -> Psbox_engine.Time.t

val shutdown : t -> unit
(** Stop ticks and governors so the event queue can drain. *)
