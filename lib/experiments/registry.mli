(** Experiment registry: every table and figure of the paper, addressable by
    id from the CLI and the benchmark harness. *)

type entry = {
  e_id : string;
  e_title : string;
  e_run : ?seed:int -> unit -> Report.t;
      (** [?seed] overrides the experiment's built-in default seed (the
          CLI's [--seed] flag lands here); experiments without a seeded
          simulation (table5) ignore it. *)
}

val all : entry list

val find : string -> entry option
