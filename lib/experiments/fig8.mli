(** Figure 8: confinement of throughput loss.

    Several instances of the same app co-run on each hardware class; one
    instance then enters its psbox. The sandboxed instance absorbs whatever
    throughput is lost; its siblings stay at their original share. *)

type instance = {
  i_name : string;
  i_sandboxed : bool;
  i_before : float;  (** throughput (counter units/s) before the psbox *)
  i_after : float;
}

type hw_result = {
  h_hw : string;
  h_unit : string;
  h_instances : instance list;
  h_total_loss_pct : float;
}

val cpu : ?seed:int -> unit -> hw_result
val run : ?seed:int -> unit -> Report.t * hw_result list
