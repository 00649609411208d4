(** Joule audit: per-cause energy attribution.

    An attribution ledger that rides the machine's existing instrumentation
    buses — each physical rail's own {!Psbox_hw.Power_rail.transitions}
    bus, the kernel subsystems' share buses, every {!Psbox_hw.Dvfs.changes}
    bus and, for the display and GPS, the
    {!Psbox_kernel.System.power_bus} — and attributes every watt-second on
    every physical rail to a key of (app × subsystem × cause). The causes
    are the paper's entanglement taxonomy made first-class: power
    misbehaves because of spatial concurrency on a shared rail, blurry
    asynchronous request boundaries, and lingering power states;
    everything else is either directly caused active draw or the device's
    idle floor.

    {2 Conservation, bit-for-bit}

    The load-bearing invariant ({!check}, the CLI [audit-check]):
    attributed joules per rail sum {e exactly} — bit-for-bit, not
    approximately — to the kernel's O(1) energy ledger
    ({!Psbox_kernel.System.rail_energy_j}). Three mechanisms make an exact
    float identity possible:

    - the audit settles its per-rail total on the same transitions with
      the very same expression and operand sequence as the kernel ledger,
      so the two totals are bit-identical by construction;
    - per-(app, cause) cells accumulate independently and are allowed to
      carry ordinary rounding dust;
    - at read time the rail's idle-floor remainder is emitted {e last},
      valued [total -. fold(other rows)] plus, when round-to-even leaves
      the fold one ulp short, a second-order dust term that is exact by
      Sterbenz's lemma — so a left-to-right fold over the printed rows
      reproduces the total exactly. The dust the remainder absorbs is
      exposed as {!residue} and is itself asserted tiny in tests, so the
      invariant is not vacuous.

    {2 Display and GPS shares}

    The display and the GPS bill apps through per-app attribution rails
    (["<physical>.app<id>"]), which the audit reads from the power bus. An
    app rail's draw is that app's share of the physical rail, and a draw
    at or below the physical rail's {!Psbox_hw.Power_rail.floor_w} is no
    share (an app that has left the GPS idles its rail at the receiver's
    floor).

    The audit is a pure observer: subscribing it changes no simulation
    decision and no experiment output. Settling a rail transition
    allocates only the float handed to the telemetry counters. *)

type cause =
  | Active  (** the app's own requests were executing on the device *)
  | Shared_rail
      (** several apps' requests were in flight on one rail; the draw is
          split in proportion to their shares (spatial entanglement) *)
  | Lingering
      (** nobody was using the device but it had not yet fallen back to
          its floor state (autosuspend countdown, NIC tail, ...) *)
  | Dvfs_transition
      (** lingering draw while the DVFS state was still elevated above the
          lowest OPP — the governor had not yet stepped down *)
  | Idle_floor  (** the device's deepest reachable draw; nobody's fault *)

val cause_label : cause -> string
(** Stable lower-case label: ["active"], ["shared-rail"], ["lingering"],
    ["dvfs-transition"], ["idle-floor"]. *)

val cause_of_label : string -> cause option

val all_causes : cause list
(** Every cause, canonical order — the row order of fleet cause tables. *)

type t

(** {1 Per-domain switchboard}

    The switchboard (enable flag, report registry, attach memo) is
    domain-local: a fleet worker domain auditing its devices never touches
    the main domain's registry, and vice versa. *)

val enable : unit -> unit
(** Attach an audit ledger to every machine built from now on (installs a
    {!Psbox_kernel.System.on_boot} hook once). Idempotent. Already-built
    machines are unaffected. *)

val disable : unit -> unit
(** Stop auditing machines built from now on. Ledgers already attached
    keep running with their machines. *)

val enabled : unit -> bool

val set_report_mode : bool -> unit
(** In report mode every subsequently attached ledger is also retained in
    a strong registry (creation order) so a one-shot CLI can render a
    report covering every machine the run built. Off by default: without
    it, dead machines and their ledgers are garbage-collected. *)

val report_mode : unit -> bool
(** Current report-mode setting of this domain — save/restore it around a
    scope that must not pollute the report registry (fleet devices). *)

val attach : Psbox_kernel.System.t -> t
(** Attach an audit ledger to one machine explicitly (tests; {!enable} is
    the normal route). At most one ledger per machine — attaching twice
    returns the existing one. *)

val lookup : Psbox_kernel.System.t -> t option
(** The ledger attached to this machine, if any. *)

val instances : unit -> t list
(** Report-mode registry, creation order. *)

(** {1 Reading the blame matrix} *)

type row = {
  r_app : int;  (** 0 = the system itself (nobody) *)
  r_cause : cause;
  r_j : float;
  r_residual : bool;
      (** a closing idle-floor remainder row, valued so the fold lands
          bit-exactly on the rail total; usually one such row, plus a
          one-ulp dust row when a single subtraction cannot close the
          fold under round-to-even *)
}

val rails : t -> string list
(** Audited physical rails, sorted by name. *)

val rows : t -> rail:string -> row list
(** The rail's blame rows at the current instant, in canonical order:
    non-residual rows sorted by (app, cause), then the residual idle-floor
    row(s) last. Folding [r_j] left-to-right over this list yields
    {!rail_total} bit-for-bit. *)

val rail_total : t -> rail:string -> float
(** The audit's own per-rail energy total — bit-identical to
    {!Psbox_kernel.System.rail_energy_j} by construction. *)

val residue : t -> rail:string -> float
(** [sum of residual rows -. independently accumulated idle-floor cell]:
    the rounding dust the remainder rows absorbed. Diagnostic only; tests
    assert it stays negligible relative to the rail total. *)

val app_blame : t -> app:int -> (cause * float) list
(** The app's attributed joules per cause, summed over all rails, in
    canonical cause order (causes with zero blame omitted). Uses the same
    read-time rows as {!rows}, so residual idle-floor dust lands on app 0,
    never on a tenant. *)

val check : t -> (unit, string) result
(** Verify the conservation invariant on every rail: fold of {!rows} =
    {!rail_total} = {!Psbox_kernel.System.rail_energy_j}, compared
    bit-for-bit ([Int64.bits_of_float]). *)

(** {1 Reports} *)

val write_report : Format.formatter -> unit
(** Render every report-mode instance as the machine-parseable audit
    report ([--audit-out]); floats are printed [%.17g] so [audit-check]
    can re-fold the rows and compare bit-for-bit after a round-trip. *)

val write_flame : Format.formatter -> unit
(** Render every report-mode instance as folded stacks
    ([rail;app;subsystem;cause microjoules], one per line), aggregated
    across machines — the input format of standard flamegraph tools. *)
