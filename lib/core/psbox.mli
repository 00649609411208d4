(** Power sandbox — the paper's new OS principal (§3).

    A psbox encloses one app and exposes a {e virtual power meter}: the app
    observes the power of itself running in its vertical slice of the
    hardware/software stack, insulated from the impacts of concurrent apps.
    The kernel enforces the boundary with resource balloons (spatial on the
    CPU, temporal on accelerators and the NIC) and virtualizes hardware
    power states per psbox; in the virtual meter, the only possible
    contribution of other apps is idle power.

    Mirroring Listing 1 of the paper:
    {[
      let box = Psbox.create sys ~app ~hw:[ Psbox.Cpu ] in
      Psbox.enter box;
      (* ... run the phase of interest ... *)
      let samples = Psbox.sample box in        (* timestamped, 10 us default *)
      let energy = Psbox.read_mj box in        (* accumulated energy *)
      Psbox.leave box
    ]}

    Power is only observable from inside the box ({!read_mj} / {!sample}
    raise {!Not_in_psbox} otherwise); entering and leaving are free-form and
    cheap, supporting the intended "pay as you go" usage. *)

type target = Cpu | Gpu | Dsp | Wifi | Display | Gps
(** [Display] and [Gps] are the §7 extension components: their power is
    entanglement-free, so the psbox view is an exact per-app attribution
    rather than a balloon-metered one. *)

exception Not_in_psbox

type t

val create :
  ?virtualize_power_state:bool ->
  Psbox_kernel.System.t ->
  app:int ->
  hw:target list ->
  t
(** Create a psbox for an app, bound to a set of hardware components (the
    granularity of one rail each, as the prototype hardware supports).
    [virtualize_power_state] (default true) is the paper's per-sandbox
    save/restore of operating/idle states; it exists as a switch only for
    the ablation bench.
    @raise Invalid_argument on an empty or unavailable target set, or if the
    app already has a psbox covering one of the targets. *)

val enter : t -> unit
(** Enter the sandbox: the kernel begins enforcing resource balloons for the
    app on every bound component, and the virtual power meter starts.
    Idempotent. *)

val leave : t -> unit
(** Leave: balloons are released (temporal balloons close after their drain
    phase) and power observation stops. Decisions made from observations
    remain valid outside — the vertical environment is preserved.
    Idempotent. *)

val inside : t -> bool

val targets : t -> target list

val read_mj : t -> float
(** Accumulated energy in millijoules since {!enter}, summed over the bound
    components, integrated exactly over the virtual meter's view
    (balloon power inside the app's exclusive intervals; idle power
    elsewhere; off/suspended periods masked as idle).
    @raise Not_in_psbox when called outside the box. *)

val sample : ?period:Psbox_engine.Time.span -> t -> Psbox_meter.Sample.t array
(** Timestamped virtual-meter samples since {!enter} (default period 10 us —
    the 100 kHz of the paper's prototype), summed over bound components.
    @raise Not_in_psbox when called outside the box. *)

val sample_target : t -> target -> Psbox_meter.Sample.t array
(** Per-component samples at the 10 us period.
    @raise Not_in_psbox when outside. *)

val exclusive_us : t -> float
(** Total microseconds of exclusive (balloon) hardware time granted to this
    psbox over its stay: since {!enter}, and once left, up to {!leave}
    (diagnostics). The balloons are read from the device schedulers; a
    Display or GPS binding is exclusive for the whole stay. *)

val stay_blame : t -> (string * float) list
(** The joule-audit view of the app's last completed stay: per-cause
    joules ({!Psbox_audit.Audit.cause_label} × J) the attribution ledger
    blamed on this app between the last {!enter} and {!leave}, summed over
    all rails. Makes insulation auditable: after a balloon'd stay, the
    app's shared-rail blame should be on the balloon owner, not leaked to
    neighbours. Empty when auditing is off or the box was never left. *)

val exclusive_intervals : t -> (Psbox_engine.Time.t * Psbox_engine.Time.t) list
(** The exclusive intervals themselves (all bound components merged,
    unsorted across components), clipped to the stay as for
    {!exclusive_us}. *)

val destroy : t -> unit
(** Leave if necessary and unregister the psbox. *)
