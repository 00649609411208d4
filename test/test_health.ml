(* Tests for the streaming health engine: hysteresis latching (one
   incident per excursion, re-arm below 80% of the threshold), the
   pending -> firing -> resolved lifecycle with for-durations and its
   timestamps on the evaluation grid, the evidence an incident records,
   absence staleness, multi-window SLO burn and its monotone response to
   the violation rate, NaN and out-of-range parameters rejected by name,
   the model.drift rule as the estimator's only drift detector, the
   self-healing recalibration responder, the incident log staying valid
   JSON for any name, and the fleet incident rollup staying
   byte-identical across job counts. *)
open Psbox_engine
module System = Psbox_kernel.System
module Health = Psbox_health.Health
module Fleet = Psbox_fleet.Fleet
module Model = Psbox_model.Model
module Tm = Psbox_telemetry.Metrics
module Json = Psbox_telemetry.Json
module W = Psbox_workloads.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let fired_count eng rule =
  List.assoc_opt rule (Health.incident_counts eng) |> Option.value ~default:0

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec go i = i + n <= h && (String.sub hay i n = needle || go (i + 1)) in
  go 0

(* Drive an engine by hand: a probe reads from a mutable cell, eval_now
   consumes one value per call. Time never advances; the grid's
   timestamps are tested on the grid below. *)
let drive_threshold ?for_windows ~limit values =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim () in
      let cell = ref None in
      Health.add_rule eng
        (Health.threshold ~name:"t" ?for_windows
           (Health.Probe ("p", fun () -> !cell))
           limit);
      List.iter
        (fun v ->
          cell := Some v;
          Health.eval_now eng)
        values;
      eng)

(* ------------------------------------------------------------------ *)
(* qcheck: hysteresis latches — for any value sequence, the engine files
   exactly as many incidents as the reference latch automaton (fire on
   v > limit while armed, re-arm on v < 0.8 * limit), and with a
   for-duration of 1 every opened incident also fires.                  *)

let arbitrary_values =
  QCheck.make
    ~print:(fun vs ->
      String.concat ";" (List.map (Printf.sprintf "%.2f") vs))
    QCheck.Gen.(list_size (5 -- 60) (float_range 0.0 20.0))

let prop_hysteresis_once_per_excursion =
  QCheck.Test.make ~name:"threshold fires once per excursion" ~count:200
    arbitrary_values (fun values ->
      let limit = 10.0 in
      let expected =
        let armed = ref true and fired = ref 0 in
        List.iter
          (fun v ->
            if !armed then begin
              if v > limit then begin
                incr fired;
                armed := false
              end
            end
            else if v < 0.8 *. limit then armed := true)
          values;
        !fired
      in
      let eng = drive_threshold ~limit values in
      fired_count eng "t" = expected
      && List.for_all
           (fun i -> i.Health.i_fired_s <> None)
           (Health.incidents eng))

(* ------------------------------------------------------------------ *)
(* for-duration: a breach must hold for [for_windows] consecutive
   evaluations; a retreat while pending resolves without firing.        *)

let test_for_windows_gate () =
  let eng =
    drive_threshold ~for_windows:3 ~limit:10.0
      [ 12.0; 12.0; 5.0; 12.0; 12.0; 12.0; 12.0 ]
  in
  let incs = Health.incidents eng in
  check_int "two incidents opened" 2 (List.length incs);
  let first = List.nth incs 0 and second = List.nth incs 1 in
  check_bool "first retreated before firing" true (first.Health.i_fired_s = None);
  check_bool "first resolved" true (first.Health.i_resolved_s <> None);
  check_bool "second fired" true (second.Health.i_fired_s <> None);
  check_int "one fired" 1 (fired_count eng "t")

(* A signal gap is no evidence either way: an open incident rides it out. *)
let test_missing_signal_holds_state () =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim () in
      let cell = ref None in
      Health.add_rule eng
        (Health.threshold ~name:"t" (Health.Probe ("p", fun () -> !cell)) 10.0);
      cell := Some 12.0;
      Health.eval_now eng;
      cell := None;
      Health.eval_now eng;
      Health.eval_now eng;
      check_int "still open through the gap" 1
        (List.length (Health.open_incidents eng));
      cell := Some 1.0;
      Health.eval_now eng;
      check_int "resolves once data returns" 0
        (List.length (Health.open_incidents eng)))

(* ------------------------------------------------------------------ *)
(* absence: a metric that stops moving (or never registers) breaches
   after stale_windows evaluations and resolves as soon as it moves.    *)

let test_absence_staleness () =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim () in
      let hb = Tm.counter "heartbeat" in
      Health.add_rule eng
        (Health.absence ~name:"dead" ~stale_windows:3 "heartbeat");
      for _ = 1 to 5 do
        Tm.incr hb;
        Health.eval_now eng
      done;
      check_int "alive while moving" 0 (List.length (Health.incidents eng));
      for _ = 1 to 3 do
        Health.eval_now eng
      done;
      check_int "stale fires" 1 (fired_count eng "dead");
      Tm.incr hb;
      Health.eval_now eng;
      check_int "movement resolves" 0
        (List.length (Health.open_incidents eng)))

let test_absence_never_registered () =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim () in
      Health.add_rule eng (Health.absence ~name:"dead" ~stale_windows:2 "ghost");
      Health.eval_now eng;
      Health.eval_now eng;
      check_int "unregistered metric is stale" 1 (fired_count eng "dead"))

(* ------------------------------------------------------------------ *)
(* SLO burn: drive the cumulative counters by hand.                     *)

let run_burn ~bads =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim ~period:(Time.ms 10) () in
      let bad = Tm.counter "bad" and total = Tm.counter "total" in
      Health.add_rule eng
        (Health.slo_burn ~name:"burn" ~bad:"bad" ~total:"total" ~slo:0.1
           ~short_windows:2 ~long_windows:4 ~factor:2.0 ());
      (* counters advance just before each grid evaluation, so incident
         timestamps index the evaluation that saw the breach *)
      List.iteri
        (fun k b ->
          Tm.add bad b;
          Tm.add total 10.0;
          Sim.run_until sim (Time.ms (10 * (k + 1))))
        bads;
      Health.stop eng;
      eng)

let test_slo_burn_lifecycle () =
  (* 5 warmup evals (needs long_windows + 1 samples), then a sustained
     violation burst, then quiet: one incident, fired and resolved. *)
  let bads =
    List.init 5 (fun _ -> 0.0)
    @ List.init 8 (fun _ -> 5.0)
    @ List.init 8 (fun _ -> 0.0)
  in
  let eng = run_burn ~bads in
  check_int "one incident" 1 (List.length (Health.incidents eng));
  check_int "fired" 1 (fired_count eng "burn");
  check_int "resolved" 0 (List.length (Health.open_incidents eng))

let test_burn_rate_zero_guard () =
  check_bool "zero total" true (Health.burn_rate ~bad:3.0 ~total:0.0 ~slo:0.1 = 0.0);
  check_bool "zero slo" true (Health.burn_rate ~bad:3.0 ~total:10.0 ~slo:0.0 = 0.0);
  check_bool "burn" true
    (Float.abs (Health.burn_rate ~bad:3.0 ~total:10.0 ~slo:0.1 -. 3.0) < 1e-12)

(* qcheck: the burn rate is monotone in the violation rate — add extra bad
   events anywhere in the sequence and the rule can only fire sooner (or
   equally), never later, and never go from firing to silent. *)
let arbitrary_burn_pair =
  QCheck.make
    ~print:(fun (a, b) ->
      Printf.sprintf "base=[%s] extra=[%s]"
        (String.concat ";" (List.map (Printf.sprintf "%.1f") a))
        (String.concat ";" (List.map (Printf.sprintf "%.1f") b)))
    QCheck.Gen.(
      let* n = 8 -- 40 in
      let* base = list_repeat n (float_range 0.0 4.0) in
      let* extra = list_repeat n (float_range 0.0 4.0) in
      return (base, extra))

let first_fire eng =
  List.find_map (fun i -> i.Health.i_fired_s) (Health.incidents eng)

let prop_burn_monotone_in_violation_rate =
  QCheck.Test.make ~name:"slo burn monotone in violation rate" ~count:100
    arbitrary_burn_pair (fun (base, extra) ->
      let eng_lo = run_burn ~bads:base in
      let eng_hi = run_burn ~bads:(List.map2 ( +. ) base extra) in
      (* per-window burn is pointwise >= under a pointwise-larger bad
         stream (totals equal), so if the smaller stream ever fires, the
         larger one fires no later *)
      match (first_fire eng_lo, first_fire eng_hi) with
      | None, _ -> true
      | Some _, None -> false
      | Some t_lo, Some t_hi -> t_hi <= t_lo)

(* ------------------------------------------------------------------ *)
(* qcheck: rule parameters drawn with NaN and +-infinity. A NaN must be
   rejected by the combinator's name (every comparison against it is
   false, so the rule would silently never fire); any other value is
   either rejected by name or builds a rule whose incidents, driven on the
   grid by finite signals and counters, all carry finite peaks.          *)

let gen_param =
  QCheck.Gen.(
    frequency
      [
        (1, return Float.nan);
        (1, return Float.infinity);
        (1, return Float.neg_infinity);
        (3, float_range (-20.0) 20.0);
      ])

type rule_case =
  | Limit of float  (** threshold: limit *)
  | Burn of float * float  (** slo_burn: slo, factor *)

let case_params = function
  | Limit x -> [ x ]
  | Burn (slo, factor) -> [ slo; factor ]

let print_case c =
  let fn = match c with Limit _ -> "threshold" | Burn _ -> "slo_burn" in
  String.concat " " (fn :: List.map string_of_float (case_params c))

let arbitrary_rule_case =
  QCheck.make
    ~print:(fun (c, vs) ->
      Printf.sprintf "%s on [%s]" (print_case c)
        (String.concat ";" (List.map (Printf.sprintf "%.2f") vs)))
    QCheck.Gen.(
      let* c =
        oneof
          [
            map (fun x -> Limit x) gen_param;
            map2 (fun slo f -> Burn (slo, f)) gen_param gen_param;
          ]
      in
      let* vs = list_size (20 -- 40) (float_range 0.0 20.0) in
      return (c, vs))

let build_case c signal =
  match c with
  | Limit x ->
      ("Health.threshold:", fun () -> Health.threshold ~name:"r" signal x)
  | Burn (slo, factor) ->
      ( "Health.slo_burn:",
        fun () ->
          Health.slo_burn ~name:"r" ~bad:"bad" ~total:"total" ~slo
            ~short_windows:2 ~long_windows:4 ~factor () )

let prop_rule_params_nan_rejected =
  QCheck.Test.make ~name:"rule parameters: NaN rejected, peaks finite"
    ~count:300 arbitrary_rule_case (fun (c, values) ->
      Tm.with_fresh_store (fun () ->
          let cell = ref None in
          let prefix, build =
            build_case c (Health.Probe ("p", fun () -> !cell))
          in
          let has_nan = List.exists Float.is_nan (case_params c) in
          match build () with
          | exception Invalid_argument msg ->
              String.starts_with ~prefix msg
              && ((not has_nan)
                 || String.starts_with ~prefix:(prefix ^ " NaN") msg)
          | _ when has_nan -> false
          | rule ->
              let sim = Sim.create () in
              let eng = Health.create sim ~period:(Time.ms 10) () in
              let bad = Tm.counter "bad" and total = Tm.counter "total" in
              Health.add_rule eng rule;
              List.iteri
                (fun k v ->
                  cell := Some v;
                  Tm.add bad (v /. 2.0);
                  Tm.add total 10.0;
                  Sim.run_until sim (Time.ms (10 * (k + 1))))
                values;
              Health.stop eng;
              List.for_all
                (fun i -> Float.is_finite i.Health.i_peak)
                (Health.incidents eng)))

(* The non-rule entry points that take a drift or perturbation figure
   reject NaN by name too, before any simulation runs. *)
let test_drift_entry_points_reject_nan () =
  Alcotest.check_raises "default_pack"
    (Invalid_argument "Health.default_pack: NaN drift_threshold_pct")
    (fun () ->
      Tm.with_fresh_store (fun () ->
          let sys = System.create ~cores:1 () in
          ignore (Health.default_pack ~drift_threshold_pct:Float.nan sys)));
  Alcotest.check_raises "self-heal perturbation"
    (Invalid_argument "Health.Self_heal.run: NaN perturb_pct") (fun () ->
      ignore (Health.Self_heal.run ~perturb_pct:Float.nan ()));
  Alcotest.check_raises "self-heal threshold"
    (Invalid_argument "Health.Self_heal.run: NaN drift_threshold_pct")
    (fun () -> ignore (Health.Self_heal.run ~drift_threshold_pct:Float.nan ()));
  Alcotest.check_raises "model-check perturbation"
    (Invalid_argument "Model.Check.run: NaN perturb_pct") (fun () ->
      ignore (Model.Check.run ~perturb_pct:Float.nan ()));
  (* the ranges the CLI enforces, at the library entry points: a
     perturbation of -100 % or less flips the coefficients, a drift
     threshold of 0 fires on a perfect model, and neither may be
     infinite *)
  List.iter
    (fun x ->
      Alcotest.check_raises
        (Printf.sprintf "default_pack threshold %g" x)
        (Invalid_argument
           "Health.default_pack: drift_threshold_pct must be finite and > 0")
        (fun () ->
          Tm.with_fresh_store (fun () ->
              let sys = System.create ~cores:1 () in
              ignore (Health.default_pack ~drift_threshold_pct:x sys)));
      Alcotest.check_raises
        (Printf.sprintf "self-heal threshold %g" x)
        (Invalid_argument
           "Health.Self_heal.run: drift_threshold_pct must be finite and > 0")
        (fun () -> ignore (Health.Self_heal.run ~drift_threshold_pct:x ())))
    [ 0.0; -5.0; Float.infinity ];
  List.iter
    (fun x ->
      Alcotest.check_raises
        (Printf.sprintf "self-heal perturbation %g" x)
        (Invalid_argument
           "Health.Self_heal.run: perturb_pct must be finite and > -100")
        (fun () -> ignore (Health.Self_heal.run ~perturb_pct:x ()));
      Alcotest.check_raises
        (Printf.sprintf "model-check perturbation %g" x)
        (Invalid_argument
           "Model.Check.run: perturb_pct must be finite and > -100")
        (fun () -> ignore (Model.Check.run ~perturb_pct:x ())))
    [ -100.0; -200.0; Float.infinity; Float.neg_infinity ]

(* ------------------------------------------------------------------ *)
(* A Metric threshold on the engine's own grid: the incident opens and
   fires at the first grid instant after the crossing, holds while the
   gauge sits between 0.8x the limit and the limit, and resolves at the
   first grid instant that sees it below 0.8x.                           *)

let test_threshold_on_grid () =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim ~period:(Time.ms 10) () in
      let g = Tm.gauge "level" in
      Health.add_rule eng
        (Health.threshold ~name:"hot" (Health.Metric "level") 10.0);
      Tm.set g 0.0;
      Sim.run_until sim (Time.ms 15);
      check_int "quiet below the limit" 0 (List.length (Health.incidents eng));
      Tm.set g 12.0;
      Sim.run_until sim (Time.ms 43);
      Tm.set g 9.0;
      Sim.run_until sim (Time.ms 57);
      check_int "inside the hysteresis band it stays open" 1
        (List.length (Health.open_incidents eng));
      Tm.set g 7.5;
      Sim.run_until sim (Time.ms 100);
      Health.stop eng;
      let at ms = Some (Time.to_sec_f (Time.ms ms)) in
      match Health.incidents eng with
      | [ i ] ->
          check_bool "subject is the metric" true
            (i.Health.i_subject = "level");
          check_bool "opened at the first grid instant after 15 ms" true
            (Some i.Health.i_opened_s = at 20);
          check_bool "fired there too" true (i.Health.i_fired_s = at 20);
          check_bool "resolved at the first grid instant below 8" true
            (i.Health.i_resolved_s = at 60);
          check_int "fired once" 1 (fired_count eng "hot")
      | incs ->
          Alcotest.failf "expected one incident, got %d" (List.length incs))

(* The grid is demand-armed: no rules, no events; stop cancels the tick. *)
let test_demand_armed_grid () =
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim ~period:(Time.ms 10) () in
      Sim.run_until sim (Time.ms 100);
      check_int "no rules, no evals" 0 (Health.evals eng);
      Health.add_rule eng
        (Health.threshold ~name:"t" (Health.Probe ("p", fun () -> Some 0.0)) 1.0);
      Sim.run_until sim (Time.ms 150);
      check_int "five grid evals" 5 (Health.evals eng);
      Health.stop eng;
      Sim.run_until sim (Time.ms 300);
      check_int "stopped engine never evaluates" 5 (Health.evals eng))

(* ------------------------------------------------------------------ *)
(* An incident's evidence: its worst value while open (i_peak) and the
   evaluations it stayed open (i_evals), the resolving one included.    *)

let test_incident_peak_and_evals () =
  let eng =
    drive_threshold ~limit:10.0
      [ 5.0; 12.0; 15.0; 11.0; 9.0; 7.0; 3.0; 20.0; 1.0 ]
  in
  match Health.incidents eng with
  | [ first; second ] ->
      check_bool "first peak" true (first.Health.i_peak = 15.0);
      check_int "first open evals" 5 first.Health.i_evals;
      check_bool "second peak" true (second.Health.i_peak = 20.0);
      check_int "second open evals" 2 second.Health.i_evals;
      check_bool "log carries the first incident's evidence" true
        (contains (Health.json eng) "\"peak\": 15.000000, \"evals\": 5 }")
  | incs -> Alcotest.failf "expected two incidents, got %d" (List.length incs)

(* Out-of-range arguments are rejected by name rather than building a
   rule that never fires or fires on every evaluation, or handing a rule
   to an engine that will never evaluate it. *)
let test_invalid_args_rejected () =
  let rejects msg f = Alcotest.check_raises msg (Invalid_argument msg) f in
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      rejects "Health.create: period must be positive" (fun () ->
          ignore (Health.create sim ~period:0 ()));
      let probe = Health.Probe ("p", fun () -> Some 0.0) in
      rejects "Health.threshold: for_windows < 1" (fun () ->
          ignore (Health.threshold ~name:"t" ~for_windows:0 probe 1.0));
      rejects "Health.absence: stale_windows < 1" (fun () ->
          ignore (Health.absence ~name:"a" ~stale_windows:0 "m"));
      let burn ?(short_windows = 4) ?(long_windows = 16) ?(slo = 0.05)
          ?(factor = 2.0) () =
        ignore
          (Health.slo_burn ~name:"b" ~bad:"bad" ~total:"total" ~slo
             ~short_windows ~long_windows ~factor ())
      in
      rejects "Health.slo_burn: need 1 <= short_windows <= long_windows"
        (fun () -> burn ~short_windows:8 ~long_windows:4 ());
      rejects "Health.slo_burn: slo must be positive" (fun () ->
          burn ~slo:0.0 ());
      rejects "Health.slo_burn: factor must be positive" (fun () ->
          burn ~factor:0.0 ());
      let eng = Health.create sim () in
      Health.stop eng;
      rejects "Health.add_rule: engine stopped" (fun () ->
          Health.add_rule eng (Health.threshold ~name:"t" probe 1.0));
      Sim.run_until sim (Time.ms 200);
      check_int "a stopped engine never evaluates" 0 (Health.evals eng))

(* ------------------------------------------------------------------ *)
(* The model.drift rule is the only drift detector: the estimator
   publishes model.rail.<r>.mape_pct and the default pack judges it.     *)

(* A uniformly perturbed model keeps every rail's MAPE gauge above the
   threshold for the whole held-out run, watched by the default pack with
   no responder: one incident per rail (one excursion each), not one per
   window. *)
let test_drift_rule_once_per_rail () =
  Tm.with_fresh_store (fun () ->
      let window = Time.ms 50 in
      let models =
        List.map
          (fun tr ->
            Model.Fit.perturb (Model.Fit.fit ~kind:Model.Fit.Per_opp tr) 10.0)
          (Model.Check.record ~seed:11 ~window ~windows:20)
      in
      let sys = Model.Check.scenario_sys ~seed:23 in
      ignore (Model.Check.install_workload sys);
      System.start sys;
      let est = Model.Estimator.start sys ~models ~window () in
      let eng = Health.create (System.sim sys) ~period:window () in
      Health.add_rules eng (Health.default_pack sys);
      System.run_for sys (window * 20);
      Model.Estimator.stop est;
      Health.stop eng;
      System.shutdown sys;
      check_int "one drift incident per rail" 3 (fired_count eng "model.drift");
      check_bool "one per rail, not per window" true
        (List.sort compare
           (List.map (fun i -> i.Health.i_subject) (Health.incidents eng))
        = [ "cpu"; "gpu"; "wifi" ]))

(* Bad model, then a hot swap to the faithful one, then bad again: the
   swap's clean gauge resolves the first incident, and the second
   excursion fires a second one. *)
let test_drift_rule_rearms_after_swap () =
  Tm.with_fresh_store (fun () ->
      let sys = System.create ~cores:1 () in
      let a = System.new_app sys ~name:"a" in
      ignore
        (W.spawn sys ~app:a ~name:"spin"
           (W.forever (fun () -> [ W.Compute (Time.ms 2) ])));
      System.start sys;
      let window = Time.ms 10 in
      let rc = Model.Recorder.start sys ~window () in
      System.run_for sys (Time.ms 300);
      let good =
        Model.Fit.fit ~kind:Model.Fit.Per_opp
          (List.hd (Model.Recorder.stop rc))
      in
      let bad = Model.Fit.perturb good 25.0 in
      let est = Model.Estimator.start sys ~models:[ bad ] ~window () in
      let eng = Health.create (System.sim sys) ~period:window () in
      Health.add_rules eng (Health.default_pack sys);
      System.run_for sys (Time.ms 300);
      check_int "first excursion fires once" 1 (fired_count eng "model.drift");
      check_bool "swapped in" true (Model.Estimator.swap_model est good);
      System.run_for sys (Time.ms 300);
      check_int "faithful model resolves it" 0
        (List.length (Health.open_incidents eng));
      check_bool "swapped back" true (Model.Estimator.swap_model est bad);
      System.run_for sys (Time.ms 300);
      check_int "second excursion fires again" 2
        (fired_count eng "model.drift");
      (match
         List.filter
           (fun i -> i.Health.i_rule = "model.drift")
           (Health.incidents eng)
       with
      | [ first; second ] ->
          check_bool "first resolved" true (first.Health.i_resolved_s <> None);
          check_bool "second open" true (second.Health.i_resolved_s = None);
          check_bool "same rail" true
            (first.Health.i_subject = good.Model.Fit.f_rail
            && second.Health.i_subject = good.Model.Fit.f_rail)
      | incs ->
          Alcotest.failf "expected two drift incidents, got %d"
            (List.length incs));
      Model.Estimator.stop est;
      Health.stop eng;
      System.shutdown sys)

(* ------------------------------------------------------------------ *)
(* Self-healing estimation, end to end: inject drift, the incident fires
   once per rail, the responder hot-swaps a refit, post-swap MAPE is back
   under the drift threshold.                                           *)

let test_self_heal_recovers () =
  let report, eng =
    Health.Self_heal.run ~windows:60 ~perturb_pct:12.0 ()
  in
  check_int "one fired incident per rail" 3
    report.Health.Self_heal.sh_incidents_fired;
  check_int "every rail hot-swapped" 3 report.Health.Self_heal.sh_swaps;
  check_bool
    (Printf.sprintf "post-swap MAPE %.2f%% < 5%%"
       report.Health.Self_heal.sh_post_max_mape_pct)
    true
    (report.Health.Self_heal.sh_post_max_mape_pct < 5.0);
  List.iter
    (fun rh ->
      check_bool (rh.Health.Self_heal.rh_rail ^ " drifted before") true
        (rh.Health.Self_heal.rh_pre_mape_pct > 5.0);
      check_bool (rh.Health.Self_heal.rh_rail ^ " healed after") true
        (rh.Health.Self_heal.rh_post_mape_pct
        < rh.Health.Self_heal.rh_pre_mape_pct))
    report.Health.Self_heal.sh_rails;
  check_int "drift incidents in the log" 3 (fired_count eng "model.drift")

let test_self_heal_clean_run_silent () =
  let report, eng = Health.Self_heal.run ~windows:40 () in
  check_int "no incidents without drift" 0
    report.Health.Self_heal.sh_incidents_fired;
  check_int "no swaps" 0 report.Health.Self_heal.sh_swaps;
  check_int "empty log" 0 (List.length (Health.incidents eng))

(* ------------------------------------------------------------------ *)
(* Fleet rollup: with health on, the per-device incident logs reduce into
   fleet incident rates, byte-identically across job counts.            *)

let test_fleet_incident_rollup_jobs_invariant () =
  let s1 = Fleet.run ~jobs:1 ~health:true ~scenario:"budget" ~devices:12 ~seed:7 () in
  let s4 = Fleet.run ~jobs:4 ~health:true ~scenario:"budget" ~devices:12 ~seed:7 () in
  Alcotest.(check string)
    "fleet JSON byte-identical across jobs" (Fleet.json_string s1)
    (Fleet.json_string s4);
  check_bool "cap-violation incidents surfaced" true
    (List.mem_assoc "cap.violation" s1.Fleet.s_incident_rates)

let test_fleet_health_off_unchanged () =
  let plain = Fleet.run ~jobs:1 ~scenario:"budget" ~devices:6 ~seed:7 () in
  check_bool "no incident rates without health" true
    (plain.Fleet.s_incident_rates = [])

(* ------------------------------------------------------------------ *)
(* Default pack shape and incident-log JSON stability.                  *)

let test_default_pack_rules () =
  Tm.with_fresh_store (fun () ->
      let sys = System.create ~cores:1 () in
      let rules = Health.default_pack sys in
      let names = List.map Health.rule_name rules in
      check_bool "drift rule per rail" true (List.mem "model.drift" names);
      check_bool "cap burn rule" true (List.mem "cap.violation" names);
      check_bool "dead-metric rule" true (List.mem "telemetry.dead" names);
      System.shutdown sys)

let test_json_deterministic () =
  let mk () =
    drive_threshold ~limit:10.0 [ 12.0; 12.0; 1.0; 15.0; 1.0 ]
  in
  let j1 = Health.json (mk ()) and j2 = Health.json (mk ()) in
  Alcotest.(check string) "same drive, same bytes" j1 j2;
  check_bool "fired counts present" true (contains j1 "\"fired\"");
  check_bool "incident rows present" true (contains j1 "\"rule\": \"t\"")

(* Rule and subject names are quoted, not pasted: a name with a double
   quote, a backslash or a newline still yields a log that parses, and
   the names read back unchanged. *)
let test_json_quotes_names () =
  let name = {|say "hi"\|} and subject = "line\nbreak" in
  Tm.with_fresh_store (fun () ->
      let sim = Sim.create () in
      let eng = Health.create sim () in
      Health.add_rule eng
        (Health.threshold ~name ~subject
           (Health.Probe ("p", fun () -> Some 12.0))
           10.0);
      Health.eval_now eng;
      match Json.parse (Health.json eng) with
      | Error msg -> Alcotest.failf "incident log does not parse: %s" msg
      | Ok log -> (
          (match Json.member "incidents" log with
          | Some (Json.Arr [ inc ]) ->
              check_bool "rule round-trips" true
                (Json.member "rule" inc = Some (Json.Str name));
              check_bool "subject round-trips" true
                (Json.member "subject" inc = Some (Json.Str subject))
          | _ -> Alcotest.fail "expected one incident");
          match Json.member "fired" log with
          | Some fired ->
              check_bool "fired count keyed by the name" true
                (Json.member name fired = Some (Json.Num 1.0))
          | None -> Alcotest.fail "no fired counts"))

(* ------------------------------------------------------------------ *)
(* The engine reads the store its machine writes: a machine built in one
   store and run inside another files the same incidents as one run in
   the store it was built in (none; a read of the outer store would see
   sim.events_fired frozen and open telemetry.dead).                     *)

let test_reads_machine_store () =
  let run ~elsewhere =
    Tm.with_fresh_store (fun () ->
        let sys = System.create ~cores:2 () in
        let a = System.new_app sys ~name:"duty" in
        ignore
          (W.spawn sys ~app:a ~name:"duty"
             (W.forever (fun () ->
                  [ W.Compute (Time.ms 3); W.Sleep (Time.ms 7) ])));
        System.start sys;
        let eng = Health.create (System.sim sys) () in
        Health.add_rules eng (Health.default_pack sys);
        let go () = System.run_for sys (Time.sec 1) in
        if elsewhere then Tm.with_fresh_store go else go ();
        Health.stop eng;
        System.shutdown sys;
        Health.json eng)
  in
  Alcotest.(check string)
    "same incident log" (run ~elsewhere:false) (run ~elsewhere:true)

let suite =
  [
    QCheck_alcotest.to_alcotest prop_hysteresis_once_per_excursion;
    QCheck_alcotest.to_alcotest prop_burn_monotone_in_violation_rate;
    QCheck_alcotest.to_alcotest prop_rule_params_nan_rejected;
    Alcotest.test_case "drift entry points reject NaN" `Quick
      test_drift_entry_points_reject_nan;
    Alcotest.test_case "for-windows gate" `Quick test_for_windows_gate;
    Alcotest.test_case "missing signal holds state" `Quick
      test_missing_signal_holds_state;
    Alcotest.test_case "absence staleness" `Quick test_absence_staleness;
    Alcotest.test_case "absence of unregistered metric" `Quick
      test_absence_never_registered;
    Alcotest.test_case "slo burn lifecycle" `Quick test_slo_burn_lifecycle;
    Alcotest.test_case "burn-rate zero guard" `Quick test_burn_rate_zero_guard;
    Alcotest.test_case "metric threshold on the grid" `Quick
      test_threshold_on_grid;
    Alcotest.test_case "demand-armed grid" `Quick test_demand_armed_grid;
    Alcotest.test_case "incident peak and open evaluations" `Quick
      test_incident_peak_and_evals;
    Alcotest.test_case "invalid arguments rejected by name" `Quick
      test_invalid_args_rejected;
    Alcotest.test_case "drift rule fires once per rail" `Slow
      test_drift_rule_once_per_rail;
    Alcotest.test_case "drift rule re-arms after a model swap" `Quick
      test_drift_rule_rearms_after_swap;
    Alcotest.test_case "self-heal recovers from drift" `Slow
      test_self_heal_recovers;
    Alcotest.test_case "self-heal silent on clean run" `Quick
      test_self_heal_clean_run_silent;
    Alcotest.test_case "fleet incident rollup jobs-invariant" `Slow
      test_fleet_incident_rollup_jobs_invariant;
    Alcotest.test_case "fleet without health unchanged" `Quick
      test_fleet_health_off_unchanged;
    Alcotest.test_case "default pack rules" `Quick test_default_pack_rules;
    Alcotest.test_case "incident-log JSON deterministic" `Quick
      test_json_deterministic;
    Alcotest.test_case "incident-log JSON quotes names" `Quick
      test_json_quotes_names;
    Alcotest.test_case "engine reads its machine's store" `Quick
      test_reads_machine_store;
  ]
