open Psbox_engine
module System = Psbox_kernel.System
module Task = Psbox_kernel.Task
module Entity = Psbox_kernel.Entity
module W = Psbox_workloads.Workload
module Budget = Psbox_budget.Budget
module Audit = Psbox_audit.Audit
module Health = Psbox_health.Health
module Tm = Psbox_telemetry.Metrics
module Json = Psbox_telemetry.Json

type params = {
  p_idle_scale : float;
  p_cores : int;
  p_up_threshold : float;
  p_intensity : float;
  p_cap_w : float;
}

type device = {
  d_index : int;
  d_seed : int;
  d_params : params;
  d_energy_j : (string * float) list;
  d_cause_j : (string * float) list;
  d_violations : int;
  d_windows : int;
  d_total_j : float;
  d_metrics : Tm.export;
  d_incidents : (string * int) list;
}

type dist = {
  p50 : float;
  p95 : float;
  p99 : float;
  mean : float;
  min : float;
  max : float;
}

type summary = {
  s_scenario : string;
  s_seed : int;
  s_devices : int;
  s_energy : (string * dist) list;
  s_total : dist;
  s_cause_share : (string * float) list;
  s_violation_rate : float;
  s_violations : dist;
  s_metrics : Tm.export;
  s_incident_rates : (string * float) list;
}

let scenario_ids = [ "budget"; "steady"; "mixed" ]

(* ---- per-device heterogeneity -------------------------------------- *)

(* Device i draws from two independent child seeds of the fleet seed:
   an even-indexed one for its heterogeneity sample, an odd-indexed one
   for its system RNG — so re-sampling params never perturbs the device's
   own event stream, and vice versa. *)
let params_of ~scenario ~fleet_seed idx =
  ignore scenario;
  let rng = Rng.create ~seed:(Rng.derive ~seed:fleet_seed (2 * idx)) in
  let p_idle_scale = Rng.uniform rng ~lo:0.85 ~hi:1.15 in
  let p_cores = if Rng.bool rng then 2 else 1 in
  let p_up_threshold = Rng.uniform rng ~lo:0.70 ~hi:0.95 in
  let p_intensity = Rng.uniform rng ~lo:0.8 ~hi:1.2 in
  let p_cap_w = Rng.uniform rng ~lo:0.8 ~hi:1.6 in
  { p_idle_scale; p_cores; p_up_threshold; p_intensity; p_cap_w }

let device_seed ~fleet_seed idx = Rng.derive ~seed:fleet_seed ((2 * idx) + 1)

(* ---- scenarios ------------------------------------------------------ *)

let burst p base_s = Time.of_sec_f (base_s *. p.p_intensity)

let governor p =
  Psbox_hw.Dvfs.Ondemand
    { up_threshold = p.p_up_threshold; sampling = Time.ms 20 }

let machine ?gpu ?wifi ~sys_seed p =
  System.create ~seed:sys_seed ~cores:p.p_cores ~cpu_governor:(governor p)
    ~cpu_idle_w:(0.3 *. p.p_idle_scale) ?gpu ?wifi ()

(* Observe-only per-device health: the default rule pack with no
   responders, so attaching it never changes a device's event stream —
   only its incident log. *)
let health_engine ~health sys =
  if not health then None
  else begin
    let eng = Health.create (System.sim sys) () in
    Health.add_rules eng (Health.default_pack sys);
    Some eng
  end

let finish_health = function
  | None -> []
  | Some eng ->
      Health.stop eng;
      Health.incident_counts eng

(* Each scenario returns the machine, its audit ledger, the capped app's
   control history (empty when nothing is capped) and its fired-incident
   counts (empty unless [health]). *)
let run_scenario ~health ~scenario ~sys_seed p =
  match scenario with
  | "budget" ->
      (* An interactive tenant with a duty-cycled frame loop sharing the
         machine with a capped batch spinner — the single-device [budget]
         experiment's shape, heterogeneity applied. *)
      let sys = machine ~sys_seed p in
      let audit = Audit.attach sys in
      let ui = System.new_app sys ~name:"interactive" in
      let batch = System.new_app sys ~name:"batch" in
      ignore
        (W.spawn sys ~app:ui ~name:"frames"
           (W.forever (fun () ->
                [
                  W.Compute (burst p 0.0035);
                  W.Sleep (Time.ms 12);
                  W.Count ("frames", 1.0);
                ])));
      ignore
        (W.spawn sys ~app:batch ~name:"crunch"
           ~core:(if p.p_cores > 1 then 1 else 0)
           (W.forever (fun () ->
                [ W.Compute (Time.ms 5); W.Count ("units", 1.0) ])));
      System.start sys;
      let eng = health_engine ~health sys in
      let ctl = Budget.create sys () in
      Budget.set_cap ctl ~app:batch.System.app_id ~watts:p.p_cap_w;
      System.run_for sys (Time.sec 2);
      let hist = Budget.history ctl ~app:batch.System.app_id in
      Budget.stop ctl;
      let incs = finish_health eng in
      System.shutdown sys;
      (sys, audit, hist, incs)
  | "steady" ->
      let sys = machine ~sys_seed p in
      let audit = Audit.attach sys in
      let worker = System.new_app sys ~name:"worker" in
      ignore
        (W.spawn sys ~app:worker ~name:"loop"
           (W.forever (fun () ->
                [
                  W.Compute (burst p 0.002);
                  W.Sleep (Time.ms 3);
                  W.Count ("units", 1.0);
                ])));
      System.start sys;
      let eng = health_engine ~health sys in
      System.run_for sys (Time.sec 2);
      let incs = finish_health eng in
      System.shutdown sys;
      (sys, audit, [], incs)
  | "mixed" ->
      (* A render tenant burning CPU + GPU + WiFi per frame, capped, next
         to an uncapped sync tenant — exercises multi-rail attribution and
         enforcement in every device. *)
      let sys = machine ~gpu:true ~wifi:true ~sys_seed p in
      let audit = Audit.attach sys in
      let render = System.new_app sys ~name:"render" in
      let sync = System.new_app sys ~name:"sync" in
      ignore
        (W.spawn sys ~app:render ~name:"frame"
           (W.forever (fun () ->
                [
                  W.Compute (burst p 0.001);
                  W.Gpu_batch [ W.spec ~kind:"frame" ~work_s:0.002 () ];
                  W.Send { socket = 1; bytes = 8_000 };
                  W.Count ("frames", 1.0);
                ])));
      ignore
        (W.spawn sys ~app:sync ~name:"push"
           (W.forever (fun () ->
                [
                  W.Compute (Time.us 500);
                  W.Send { socket = 2; bytes = 16_000 };
                  W.Sleep (Time.ms 20);
                  W.Count ("sends", 1.0);
                ])));
      System.start sys;
      let eng = health_engine ~health sys in
      let ctl = Budget.create sys () in
      Budget.set_cap ctl ~app:render.System.app_id ~watts:p.p_cap_w;
      System.run_for sys (Time.sec 2);
      let hist = Budget.history ctl ~app:render.System.app_id in
      Budget.stop ctl;
      let incs = finish_health eng in
      System.shutdown sys;
      (sys, audit, hist, incs)
  | other -> invalid_arg ("Fleet: unknown scenario " ^ other)

(* ---- one device ----------------------------------------------------- *)

let cause_totals audit =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun rail ->
      List.iter
        (fun (r : Audit.row) ->
          let l = Audit.cause_label r.r_cause in
          let cur =
            match Hashtbl.find_opt tbl l with Some x -> x | None -> 0.0
          in
          Hashtbl.replace tbl l (cur +. r.r_j))
        (Audit.rows audit ~rail))
    (Audit.rails audit);
  List.map
    (fun c ->
      let l = Audit.cause_label c in
      (l, match Hashtbl.find_opt tbl l with Some j -> j | None -> 0.0))
    Audit.all_causes

let app_energies audit sys =
  System.apps sys
  |> List.map (fun (app : System.app) ->
         let j =
           List.fold_left
             (fun acc (_, j) -> acc +. j)
             0.0
             (Audit.app_blame audit ~app:app.System.app_id)
         in
         (app.System.app_name, j))
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* The first measurement window (the controller's averaging horizon) is
   warm-up: the loop cannot have converged before it has even filled its
   window, and counting it would flag every device. Violations are
   steady-state overshoots only. *)
let warmup_windows = 8

let count_violations hist =
  List.fold_left
    (fun (viol, windows) (_, measured, cap) ->
      let windows = windows + 1 in
      let viol =
        if
          windows > warmup_windows
          && Float.is_finite cap
          && measured > cap *. 1.05
        then viol + 1
        else viol
      in
      (viol, windows))
    (0, 0) hist

let run_device ?(health = false) ~scenario ~fleet_seed idx =
  if not (List.mem scenario scenario_ids) then
    invalid_arg ("Fleet: unknown scenario " ^ scenario);
  let p = params_of ~scenario ~fleet_seed idx in
  let sys_seed = device_seed ~fleet_seed idx in
  Tm.with_fresh_store (fun () ->
      (* The device's world starts from zero: ids restart, metrics land in
         the fresh store, and its audit ledger must not register into this
         domain's report-mode registry. *)
      Task.reset_ids ();
      Entity.reset_ids ();
      let saved_report = Audit.report_mode () in
      Audit.set_report_mode false;
      Fun.protect
        ~finally:(fun () -> Audit.set_report_mode saved_report)
        (fun () ->
          let sys, audit, hist, d_incidents =
            run_scenario ~health ~scenario ~sys_seed p
          in
          let d_violations, d_windows = count_violations hist in
          let dev =
            {
              d_index = idx;
              d_seed = sys_seed;
              d_params = p;
              d_energy_j = app_energies audit sys;
              d_cause_j = cause_totals audit;
              d_violations;
              d_windows;
              d_total_j = System.live_energy_j sys;
              d_metrics = Tm.export ();
              d_incidents;
            }
          in
          (* hand the device's simulator scratch (queue arrays, slot pool)
             back to this worker's cache so the next device skips warm-up
             allocation *)
          Sim.retire (System.sim sys);
          dev))

(* ---- work-stealing domain pool -------------------------------------- *)

(* Each worker owns a contiguous [lo, hi) index range under one mutex;
   a dry worker steals the top half of the largest remaining range (only
   when it holds at least 2 items, so steals are never empty). Results
   land by index, so scheduling order is invisible in the output. *)
let pool_map ~jobs n f =
  if n = 0 then [||]
  else if jobs <= 1 then Array.init n f
  else begin
    let jobs = min jobs n in
    let results = Array.make n None in
    let mu = Mutex.create () in
    let lo = Array.init jobs (fun w -> w * n / jobs) in
    let hi = Array.init jobs (fun w -> (w + 1) * n / jobs) in
    let take w =
      Mutex.protect mu (fun () ->
          if lo.(w) < hi.(w) then begin
            let i = lo.(w) in
            lo.(w) <- i + 1;
            Some i
          end
          else begin
            let victim = ref (-1) and best = ref 1 in
            for v = 0 to jobs - 1 do
              let avail = hi.(v) - lo.(v) in
              if avail > !best then begin
                victim := v;
                best := avail
              end
            done;
            if !victim < 0 then None
            else begin
              let v = !victim in
              let mid = lo.(v) + (((hi.(v) - lo.(v)) + 1) / 2) in
              let s_hi = hi.(v) in
              hi.(v) <- mid;
              lo.(w) <- mid + 1;
              hi.(w) <- s_hi;
              Some mid
            end
          end)
    in
    (* Fresh domains default to pooling on; propagate the caller's --pool
       choice so device event queues behave identically in every shard. *)
    let pooling = Sim.default_pooling () in
    let worker w () =
      Sim.set_default_pooling pooling;
      let rec go () =
        match take w with
        | Some i ->
            results.(i) <- Some (f i);
            go ()
        | None -> ()
      in
      go ()
    in
    let domains =
      Array.init (jobs - 1) (fun k -> Domain.spawn (worker (k + 1)))
    in
    Fun.protect
      ~finally:(fun () -> Array.iter Domain.join domains)
      (fun () -> worker 0 ());
    Array.map
      (function Some r -> r | None -> failwith "Fleet: unprocessed device")
      results
  end

let run_devices ?(jobs = 1) ?health ~scenario ~devices ~seed () =
  if devices < 0 then invalid_arg "Fleet.run_devices: negative device count";
  if not (List.mem scenario scenario_ids) then
    invalid_arg ("Fleet: unknown scenario " ^ scenario);
  pool_map ~jobs devices (fun i ->
      run_device ?health ~scenario ~fleet_seed:seed i)

(* ---- reduction ------------------------------------------------------ *)

(* Exact order statistics: rank ceil(q*n) in the sorted copy. No
   interpolation, so equal populations give equal bytes. *)
let dist_of values =
  let n = Array.length values in
  if n = 0 then { p50 = 0.0; p95 = 0.0; p99 = 0.0; mean = 0.0; min = 0.0; max = 0.0 }
  else begin
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let q p =
      let rank = int_of_float (Float.ceil (p *. float_of_int n)) - 1 in
      sorted.(Stdlib.max 0 (Stdlib.min (n - 1) rank))
    in
    let sum = Array.fold_left ( +. ) 0.0 values in
    {
      p50 = q 0.50;
      p95 = q 0.95;
      p99 = q 0.99;
      mean = sum /. float_of_int n;
      min = sorted.(0);
      max = sorted.(n - 1);
    }
  end

let summarize ~scenario ~seed devices =
  let n = Array.length devices in
  let classes =
    Array.fold_left
      (fun acc d -> List.fold_left (fun acc (c, _) -> c :: acc) acc d.d_energy_j)
      [] devices
    |> List.sort_uniq String.compare
  in
  let s_energy =
    List.map
      (fun cls ->
        let values =
          Array.map
            (fun d ->
              match List.assoc_opt cls d.d_energy_j with
              | Some j -> j
              | None -> 0.0)
            devices
        in
        (cls, dist_of values))
      classes
  in
  let s_total = dist_of (Array.map (fun d -> d.d_total_j) devices) in
  let fleet_j = Array.fold_left (fun acc d -> acc +. d.d_total_j) 0.0 devices in
  let s_cause_share =
    List.map
      (fun c ->
        let l = Psbox_audit.Audit.cause_label c in
        let j =
          Array.fold_left
            (fun acc d ->
              match List.assoc_opt l d.d_cause_j with
              | Some j -> acc +. j
              | None -> acc)
            0.0 devices
        in
        (l, if fleet_j > 0.0 then j /. fleet_j else 0.0))
      Psbox_audit.Audit.all_causes
  in
  let violated =
    Array.fold_left
      (fun acc d -> if d.d_violations > 0 then acc + 1 else acc)
      0 devices
  in
  let s_violations =
    dist_of (Array.map (fun d -> float_of_int d.d_violations) devices)
  in
  let s_metrics =
    Array.fold_left (fun acc d -> Tm.merge acc d.d_metrics) [] devices
  in
  (* fired incidents per rule per 1000 devices — the fleet operations
     number: "how often does this alert fire across the population" *)
  let s_incident_rates =
    let tbl = Hashtbl.create 8 in
    Array.iter
      (fun d ->
        List.iter
          (fun (rule, c) ->
            Hashtbl.replace tbl rule
              (c + Option.value ~default:0 (Hashtbl.find_opt tbl rule)))
          d.d_incidents)
      devices;
    Hashtbl.fold (fun rule c acc -> (rule, c) :: acc) tbl []
    |> List.sort (fun (a, _) (b, _) -> String.compare a b)
    |> List.map (fun (rule, c) ->
           (rule, float_of_int c *. 1000.0 /. float_of_int (Stdlib.max n 1)))
  in
  {
    s_scenario = scenario;
    s_seed = seed;
    s_devices = n;
    s_energy;
    s_total;
    s_cause_share;
    s_violation_rate =
      (if n = 0 then 0.0 else float_of_int violated /. float_of_int n);
    s_violations;
    s_metrics;
    s_incident_rates;
  }

let run ?jobs ?health ~scenario ~devices ~seed () =
  summarize ~scenario ~seed
    (run_devices ?jobs ?health ~scenario ~devices ~seed ())

(* ---- rendering ------------------------------------------------------ *)

let pp_device fmt d =
  Format.fprintf fmt
    "device %d seed=%d idle_scale=%.17g cores=%d up_threshold=%.17g \
     intensity=%.17g cap_w=%.17g@\n"
    d.d_index d.d_seed d.d_params.p_idle_scale d.d_params.p_cores
    d.d_params.p_up_threshold d.d_params.p_intensity d.d_params.p_cap_w;
  List.iter
    (fun (cls, j) -> Format.fprintf fmt "energy %s %.17g@\n" cls j)
    d.d_energy_j;
  List.iter
    (fun (c, j) -> Format.fprintf fmt "cause %s %.17g@\n" c j)
    d.d_cause_j;
  List.iter
    (fun (rule, c) -> Format.fprintf fmt "incident %s %d@\n" rule c)
    d.d_incidents;
  Format.fprintf fmt "violations %d/%d@\n" d.d_violations d.d_windows;
  Format.fprintf fmt "total_j %.17g@\n" d.d_total_j;
  List.iter
    (fun (name, row) -> Format.fprintf fmt "metric %s %s@\n" name row)
    (Tm.export_rows d.d_metrics)

(* JSON values: integers render without a fraction, everything else
   %.17g (round-trips every double). Keys in fixed order. *)
let json_num v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.17g" v

let pp_dist fmt d =
  Format.fprintf fmt
    "{\"p50\":%s,\"p95\":%s,\"p99\":%s,\"mean\":%s,\"min\":%s,\"max\":%s}"
    (json_num d.p50) (json_num d.p95) (json_num d.p99) (json_num d.mean)
    (json_num d.min) (json_num d.max)

let pp_json fmt s =
  Format.fprintf fmt "{@\n";
  Format.fprintf fmt
    "  \"fleet\": {\"scenario\": %s, \"seed\": %d, \"devices\": %d},@\n"
    (Json.quote s.s_scenario) s.s_seed s.s_devices;
  Format.fprintf fmt "  \"energy_j\": {";
  List.iteri
    (fun i (cls, d) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s: %a" (Json.quote cls) pp_dist d)
    s.s_energy;
  Format.fprintf fmt "},@\n";
  Format.fprintf fmt "  \"total_j\": %a,@\n" pp_dist s.s_total;
  Format.fprintf fmt "  \"cause_share\": {";
  List.iteri
    (fun i (c, share) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s: %s" (Json.quote c) (json_num share))
    s.s_cause_share;
  Format.fprintf fmt "},@\n";
  Format.fprintf fmt
    "  \"violations\": {\"rate\": %s, \"per_device\": %a},@\n"
    (json_num s.s_violation_rate) pp_dist s.s_violations;
  Format.fprintf fmt "  \"incidents_per_1000\": {";
  List.iteri
    (fun i (rule, rate) ->
      if i > 0 then Format.fprintf fmt ", ";
      Format.fprintf fmt "%s: %s" (Json.quote rule) (json_num rate))
    s.s_incident_rates;
  Format.fprintf fmt "},@\n";
  Format.fprintf fmt "  \"metrics\": {";
  let first = ref true in
  List.iter
    (fun (name, v) ->
      match v with
      | Tm.Counter_v x | Tm.Gauge_v x ->
          if !first then first := false else Format.fprintf fmt ", ";
          Format.fprintf fmt "%s: %s" (Json.quote name) (json_num x)
      | Tm.Histogram_v { edges; counts; sum } ->
          if !first then first := false else Format.fprintf fmt ", ";
          Format.fprintf fmt "%s: {\"edges\": [" (Json.quote name);
          Array.iteri
            (fun i e ->
              if i > 0 then Format.fprintf fmt ", ";
              Format.fprintf fmt "%s" (json_num e))
            edges;
          Format.fprintf fmt "], \"counts\": [";
          Array.iteri
            (fun i c ->
              if i > 0 then Format.fprintf fmt ", ";
              Format.fprintf fmt "%d" c)
            counts;
          Format.fprintf fmt "], \"sum\": %s}" (json_num sum))
    s.s_metrics;
  Format.fprintf fmt "}@\n";
  Format.fprintf fmt "}@\n"

let json_string s = Format.asprintf "%a" pp_json s
