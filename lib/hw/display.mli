(** OLED display model (§7 extension 1).

    Modern OLED panels are free of power entanglement: each pixel draws
    power independently of the others and leaves no lingering state, so the
    OS can attribute display power to apps directly from the pixels each one
    produces (the paper cites Chameleon [24] / Eprof [70]). No balloons are
    needed — the display keeps one exact per-app power rail alongside the
    physical panel rail.

    Power model: [base_w] while the panel is on, attributed to apps in
    proportion to their lit pixels, plus a per-pixel emission term
    proportional to the surface's mean luminance. *)

type t

val create :
  Psbox_engine.Sim.t ->
  ?retention:Psbox_engine.Time.span ->
  ?width:int ->
  ?height:int ->
  ?base_w:float ->
  ?w_per_mnit_pixel:float ->
  unit ->
  t
(** A panel named ["display"]. Defaults: 1920x1080, 0.25 W panel base,
    0.35 W per megapixel at full luminance. The panel starts off (0 W).
    [retention] bounds the power history of the panel rail and every
    per-app rail (see {!Power_rail.create}). *)

val rail : t -> Power_rail.t
(** The physical panel rail (all apps' surfaces combined). *)

val set_surface : t -> app:int -> pixels:int -> luminance:float -> unit
(** Declare the app's current surface: how many pixels it lights and their
    mean luminance in [0, 1]. Replaces the app's previous surface.
    @raise Invalid_argument if [app] is negative, [pixels] exceeds the
    panel or [luminance] is outside [0, 1]. *)

val remove_surface : t -> app:int -> unit

val app_rail : t -> app:int -> Power_rail.t
(** The app's exact attributed power: its emission term plus its pixel
    share of the base — the per-app view a psbox exposes. Created on first
    use. @raise Invalid_argument if [app] is negative. *)

val app_power_w : t -> app:int -> float

val set_on_app_rail : t -> (Power_rail.t -> unit) -> unit
(** Install a hook fired for every lazily-created per-app rail, so machine
    composition can forward attribution rails created after boot onto the
    machine bus. Rails that already exist are passed to the hook
    immediately; only one hook is kept. *)
