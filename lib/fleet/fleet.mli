(** Fleet simulation: a population of devices from one seed.

    The paper evaluates psbox on one board; a deployment decision needs the
    population view — how cap violations, per-app energy and per-cause
    blame {e distribute} over thousands of heterogeneous devices. A fleet
    run instantiates N independent device simulations, each a full
    {!Psbox_kernel.System} plus workload scenario, and reduces their
    results into fleet-level distributions.

    {2 Determinism}

    A fleet run is identified by [(scenario, seed, devices)] and nothing
    else. Device [i] gets two child seeds via {!Psbox_engine.Rng.derive} —
    one samples its heterogeneity {!params}, the other seeds its system
    RNG — so any device can be re-simulated in isolation, in any order, on
    any domain, and produce identical results. Each device runs inside
    {!Psbox_telemetry.Metrics.with_fresh_store} with task/entity ids reset,
    so its outputs depend on its own history only. Reductions fold in
    device-index order. Consequence: the summary (and its JSON) is
    byte-identical across repeated runs and across [~jobs] values.

    {2 Sharding}

    [~jobs > 1] shards devices over [jobs] OCaml domains (the calling one
    included): each worker takes the next device index from one shared
    atomic cursor until none is left, so a worker that draws cheap devices
    takes more of them. [~jobs:1] runs everything in the calling domain —
    same results, byte for byte. *)

type params = {
  p_idle_scale : float;
      (** CPU rail idle-floor scale factor, in [0.85, 1.15] — board-level
          power variance *)
  p_cores : int;  (** 1 or 2 *)
  p_up_threshold : float;
      (** ondemand governor trip point, in [0.70, 0.95] — the DVFS-table
          variant knob *)
  p_intensity : float;
      (** workload compute-burst scale, in [0.8, 1.2] *)
  p_cap_w : float;  (** per-device budget cap, watts, in [0.8, 1.6] *)
}

type device = {
  d_index : int;
  d_seed : int;  (** the device's own system seed *)
  d_params : params;
  d_energy_j : (string * float) list;
      (** app class -> attributed joules, sorted by class *)
  d_cause_j : (string * float) list;
      (** cause label -> joules over all rails, canonical cause order,
          zeros included *)
  d_violations : int;
      (** control windows where measured draw exceeded the cap by > 5% *)
  d_windows : int;  (** control windows observed *)
  d_total_j : float;  (** machine energy ledger at end of run *)
  d_metrics : Psbox_telemetry.Metrics.export;
  d_incidents : (string * int) list;
      (** fired health incidents per rule name, sorted by rule; empty
          unless the device ran with [~health:true] *)
}

type dist = {
  p50 : float;
  p95 : float;
  p99 : float;
  mean : float;
  min : float;
  max : float;
}
(** Exact order statistics (no interpolation): [p_q] is the
    [ceil (q * n)]-th smallest value, so the same device population always
    yields the same bytes. *)

type summary = {
  s_scenario : string;
  s_seed : int;
  s_devices : int;
  s_energy : (string * dist) list;
      (** per-device attributed joules by app class, sorted by class *)
  s_total : dist;  (** per-device whole-machine joules *)
  s_cause_share : (string * float) list;
      (** fraction of fleet joules per cause, canonical cause order *)
  s_violation_rate : float;
      (** fraction of devices with at least one cap violation *)
  s_violations : dist;  (** per-device violation counts *)
  s_metrics : Psbox_telemetry.Metrics.export;
      (** all device metric exports merged (counters summed, histograms
          bucket-merged, gauges maxed) in device-index order *)
  s_incident_rates : (string * float) list;
      (** fired health incidents per rule per 1000 devices, sorted by
          rule name — the reduction of every device's incident log *)
}

val scenario_ids : string list
(** Available scenarios: ["budget"] (interactive + capped batch tenant),
    ["steady"] (uncapped steady load), ["mixed"] (GPU + WiFi burn under a
    cap). *)

val params_of : fleet_seed:int -> int -> params
(** The heterogeneity sample for device [i] — pure in [(fleet_seed, i)]. *)

val run_device :
  ?health:bool -> scenario:string -> fleet_seed:int -> int -> device
(** Simulate device [i] in isolation: fresh metric store, reset id
    counters, its own audit ledger (never registered for reports).
    Deterministic in [(scenario, fleet_seed, i)] alone. With
    [~health:true] (default false) an observe-only
    {!Psbox_health.Health} engine with the default rule pack rides the
    device — no responders, so the event stream is untouched — and its
    fired-incident counts land in {!device.d_incidents}.
    @raise Invalid_argument on an unknown scenario. *)

val run_devices :
  ?jobs:int ->
  ?health:bool ->
  scenario:string -> devices:int -> seed:int -> unit ->
  device array
(** All devices, in index order. [jobs] defaults to 1; values > 1 shard
    across that many domains (capped at [devices]). *)

val summarize : scenario:string -> seed:int -> device array -> summary

val run :
  ?jobs:int ->
  ?health:bool ->
  scenario:string -> devices:int -> seed:int -> unit -> summary

val pp_device : Format.formatter -> device -> unit
(** Canonical textual form, floats [%.17g] — two equal devices render to
    equal bytes (the byte-equality tests compare this). *)

val json_string : summary -> string
(** The fleet report as deterministic JSON: fixed key order, floats
    [%.17g], independent of [~jobs]. *)
