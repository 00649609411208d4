type entry = {
  e_id : string;
  e_title : string;
  e_run : ?seed:int -> unit -> Report.t;
}

(* Every entry threads the CLI's --seed straight into the experiment's own
   ?seed parameter (each has a distinct default, so `run all` still varies
   seeds across experiments when no override is given). *)
let all =
  [
    {
      e_id = "fig3";
      e_title = "Examples of power entanglement";
      e_run = (fun ?seed () -> fst (Fig3.run ?seed ()));
    };
    {
      e_id = "sidechan";
      e_title = "GPU power side channel (Sec. 2.5)";
      e_run = (fun ?seed () -> fst (Sidechan.run ?seed ()));
    };
    {
      e_id = "table5";
      e_title = "Benchmark roster (Fig. 5)";
      e_run = (fun ?seed () -> ignore seed; Table5.run ());
    };
    {
      e_id = "fig6";
      e_title = "Elimination of power entanglement";
      e_run = (fun ?seed () -> fst (Fig6.run ?seed ()));
    };
    {
      e_id = "fig7";
      e_title = "Resource multiplexing before/after psbox";
      e_run = (fun ?seed () -> fst (Fig7.run ?seed ()));
    };
    {
      e_id = "sec62";
      e_title = "Performance impact";
      e_run = (fun ?seed () -> fst (Perf_impact.run ?seed ()));
    };
    {
      e_id = "fig8";
      e_title = "Confinement of throughput loss";
      e_run = (fun ?seed () -> fst (Fig8.run ?seed ()));
    };
    {
      e_id = "contention";
      e_title = "Fairness under extreme contention (Sec. 6.3)";
      e_run = (fun ?seed () -> fst (Contention.run ?seed ()));
    };
    {
      e_id = "fig9";
      e_title = "VR use case (Fig. 9 / Sec. 6.4)";
      e_run = (fun ?seed () -> fst (Fig9.run ?seed ()));
    };
    {
      e_id = "metering";
      e_title = "Metering methods and their limits (Sec. 2.2)";
      e_run = (fun ?seed () -> fst (Metering.run ?seed ()));
    };
    {
      e_id = "lte";
      e_title = "Cellular: uncontrollable power states (Sec. 7)";
      e_run = (fun ?seed () -> fst (Lte_case.run ?seed ()));
    };
    {
      e_id = "ablation";
      e_title = "Ablations of the psbox design choices";
      e_run = (fun ?seed () -> fst (Ablation.run ?seed ()));
    };
    {
      e_id = "budget";
      e_title = "Power budgets enforced through the kernel";
      e_run = (fun ?seed () -> fst (Budget_exp.run ?seed ()));
    };
    {
      e_id = "fleet";
      e_title = "Fleet: population study over heterogeneous devices";
      e_run = (fun ?seed () -> Fleet_exp.run ?seed ());
    };
  ]

let find id = List.find_opt (fun e -> e.e_id = id) all
