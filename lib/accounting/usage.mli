(** Per-app hardware usage records.

    The raw input of every accounting heuristic: who used which fraction of a
    device, when. Helpers convert the kernel's traces (CPU scheduling spans,
    accelerator command logs, NIC packet airtime) into usage spans. *)

type span = {
  app : int;
  start : Psbox_engine.Time.t;
  stop : Psbox_engine.Time.t;
  share : float;  (** fraction of device capacity, e.g. 1 core of 2 = 0.5 *)
}

val of_sched_trace :
  cores:int -> (int * int) Psbox_engine.Trace.span list -> span list
(** From {!Psbox_kernel.Smp.sched_spans} spans tagged [(core, app)]; idle
    pseudo-apps ([-1], [-2]) are dropped. Each span's share is [1/cores]. *)

val of_commands : units:int -> Psbox_hw.Accel.command list -> span list
(** From an accelerator's completed commands; each command contributes
    [units_used/units] between its device start and finish. *)

val of_packets : Psbox_hw.Wifi.pkt list -> span list
(** From NIC packets; each contributes share 1 during its airtime. *)

(** {1 Share sweep} *)

type segment = {
  t0 : Psbox_engine.Time.t;
  t1 : Psbox_engine.Time.t;
  shares : (int * float) list;  (** app -> summed share, only nonzero *)
}

val segments :
  span list ->
  from:Psbox_engine.Time.t ->
  until:Psbox_engine.Time.t ->
  segment list
(** Sweep the spans into maximal segments of constant per-app shares,
    clipped to the window, oldest first, gap segments (nobody active)
    included with empty [shares]. *)
