(** Figure 6: elimination of power entanglement.

    For each hardware class (CPU, DSP, GPU, WiFi), a designated power-aware
    app runs a fixed job alone and co-running with other apps. psbox's
    virtual-meter energy stays close to the alone-run energy across
    co-runners; the prior usage-based accounting [96]-style attribution
    swings widely. *)

type scenario = {
  sc_label : string;  (** e.g. "w/ body" *)
  sc_psbox_mj : float;  (** psbox observation in the co-run *)
  sc_prior_mj : float;  (** usage-split attribution in an identical co-run *)
}

type row = {
  row_hw : string;
  row_app : string;
  row_alone_mj : float;  (** the app's energy running alone (full rail) *)
  row_scenarios : scenario list;
  row_chart : Report.series list;
}

val run : ?seed:int -> unit -> Report.t * row list
