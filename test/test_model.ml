(* Tests for the counter-driven power models: least-squares recovery of
   known coefficients, held-out model-check error and its monotone response
   to injected perturbation, deterministic calibration search, and
   model-priced admission. Drift detection on the estimator's gauges is
   the health engine's job and is tested in test_health.ml. *)
open Psbox_engine
module System = Psbox_kernel.System
module W = Psbox_workloads.Workload
module Budget = Psbox_budget.Budget
module Model = Psbox_model.Model
module Fit = Model.Fit
module Tm = Psbox_telemetry.Metrics

let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* qcheck: fitting synthetic counter traces generated from a known linear
   model recovers the coefficients within tolerance.                     *)

let gen_synthetic =
  QCheck.Gen.(
    let coeff = float_range 0.05 2.0 in
    let* dim = 2 -- 6 in
    let* coeffs = array_repeat dim coeff in
    (* windows: dt fixed, each residency a random fraction of the window *)
    let* rows =
      list_repeat 30
        (array_repeat (dim - 1) (float_range 0.0 0.05))
    in
    return (coeffs, rows))

let arbitrary_synthetic =
  QCheck.make
    ~print:(fun (coeffs, rows) ->
      Printf.sprintf "dim=%d rows=%d" (Array.length coeffs) (List.length rows))
    gen_synthetic

let prop_lstsq_recovers =
  QCheck.Test.make ~name:"lstsq recovers known linear model" ~count:50
    arbitrary_synthetic (fun (coeffs, rows) ->
      let dim = Array.length coeffs in
      let obs =
        List.map
          (fun resid ->
            let f = Array.make dim 0.05 in
            Array.blit resid 0 f 1 (dim - 1);
            let y = ref 0.0 in
            Array.iteri (fun i v -> y := !y +. (coeffs.(i) *. v)) f;
            (f, !y))
          rows
      in
      let fitted = Fit.lstsq obs in
      Array.for_all2
        (fun c c' -> Float.abs (c -. c') < 1e-4)
        coeffs fitted)

(* An all-zero feature column (an OPP never visited) must not blow up the
   solve: its coefficient pins to ~0 and the fit stays exact elsewhere. *)
let test_lstsq_zero_column () =
  let rows =
    List.init 20 (fun i ->
        let x = float_of_int (i + 1) /. 20.0 in
        ([| 0.05; x; 0.0 |], (0.3 *. 0.05) +. (1.5 *. x)))
  in
  let c = Fit.lstsq rows in
  check_bool "idle coeff" true (Float.abs (c.(0) -. 0.3) < 1e-3);
  check_bool "active coeff" true (Float.abs (c.(1) -. 1.5) < 1e-3);
  check_bool "zero column pinned" true (Float.abs c.(2) < 1e-3)

(* ------------------------------------------------------------------ *)
(* model-check: held-out accuracy, and error monotone in perturbation    *)

let run_check ?(perturb_pct = 0.0) () =
  Model.Check.run ~window:(Time.ms 50) ~windows:20 ~perturb_pct ()

let test_check_validates_within_tolerance () =
  let r = run_check () in
  check_bool "three rails modelled" true
    (List.length r.Model.Check.c_rails = 3);
  check_bool
    (Printf.sprintf "held-out MAPE %.4f%% within 5%%"
       r.Model.Check.c_max_mape_pct)
    true
    (r.Model.Check.c_max_mape_pct <= 5.0)

let test_check_error_monotone_in_perturbation () =
  let mape p = (run_check ~perturb_pct:p ()).Model.Check.c_max_mape_pct in
  let e0 = mape 0.0 and e1 = mape 2.0 and e2 = mape 8.0 and e3 = mape 20.0 in
  check_bool
    (Printf.sprintf "monotone: %.3f < %.3f < %.3f < %.3f" e0 e1 e2 e3)
    true
    (e0 < e1 && e1 < e2 && e2 < e3)

(* ------------------------------------------------------------------ *)
(* Calibration search                                                    *)

let test_search_recovers_quadratic_minimum () =
  let dims =
    [
      { Model.Calibrate.d_name = "x"; d_lo = 0.0; d_hi = 2.0 };
      { Model.Calibrate.d_name = "y"; d_lo = 0.0; d_hi = 2.0 };
    ]
  in
  let objective p =
    ((p.(0) -. 0.3) ** 2.0) +. ((p.(1) -. 1.2) ** 2.0)
  in
  let best, err = Model.Calibrate.search ~seed:7 ~dims ~objective () in
  check_bool
    (Printf.sprintf "minimum found (%.3f, %.3f) err %.5f" best.(0) best.(1) err)
    true
    (Float.abs (best.(0) -. 0.3) < 0.05 && Float.abs (best.(1) -. 1.2) < 0.05);
  (* pure in the seed: same inputs, same output *)
  let best', err' = Model.Calibrate.search ~seed:7 ~dims ~objective () in
  check_bool "deterministic" true (best = best' && err = err');
  let best'', _ = Model.Calibrate.search ~seed:8 ~dims ~objective () in
  check_bool "seed-sensitive" true (best <> best'')

(* Calibrating hardware parameters against a recorded reference trace:
   deterministic in the seed, and the searched parameters beat the
   mid-box starting point by a wide margin. *)
let test_calibrate_trace_improves_on_center () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"mix"
       (W.forever (fun () -> [ W.Compute (Time.ms 2); W.Sleep (Time.ms 3) ])));
  System.start sys;
  let rc = Model.Recorder.start sys ~window:(Time.ms 20) () in
  System.run_for sys (Time.sec 1);
  let traces = Model.Recorder.stop rc in
  System.shutdown sys;
  let trace = List.hd traces in
  let cal, err = Model.Calibrate.calibrate_trace ~seed:5 trace in
  let center =
    {
      Fit.f_rail = trace.Model.Trace.tr_rail;
      f_kind = Fit.Per_opp;
      f_names = trace.Model.Trace.tr_names;
      f_coeffs =
        Array.map
          (fun n -> if n = "dt_s" then 1.5 else 2.0)
          trace.Model.Trace.tr_names;
    }
  in
  let center_rmse = (Fit.validate center trace).Fit.e_rmse_w in
  check_bool
    (Printf.sprintf "calibrated RMSE %.4f W beats center %.4f W" err
       center_rmse)
    true
    (err < center_rmse /. 4.0);
  let cal', err' = Model.Calibrate.calibrate_trace ~seed:5 trace in
  check_bool "deterministic in the seed" true
    (cal.Fit.f_coeffs = cal'.Fit.f_coeffs && err = err')

(* ------------------------------------------------------------------ *)
(* Model-priced admission                                                *)

let test_admission_model_pricing () =
  let sys = System.create () in
  let ctl = Budget.create sys ~machine_budget_w:3.0 () in
  Budget.set_admission_estimate ctl
    (Some (fun app -> if app = 1 then Some 0.5 else None));
  check_bool "admitted" true
    (Budget.admit ctl ~app:1 ~watts:2.0 () = Budget.Admitted);
  (match Budget.reservation ctl ~app:1 with
  | Some (d, e) ->
      check_bool "declared stays the contract" true (d = 2.0);
      check_bool "charged the modeled draw" true (e = 0.5)
  | None -> Alcotest.fail "no reservation for app 1");
  (* an oracle with no history for the app falls back to declared watts *)
  check_bool "fallback admitted" true
    (Budget.admit ctl ~app:2 ~watts:2.0 () = Budget.Admitted);
  (match Budget.reservation ctl ~app:2 with
  | Some (d, e) -> check_bool "charged as declared" true (d = 2.0 && e = 2.0)
  | None -> Alcotest.fail "no reservation for app 2");
  (* 2.5 W of 3.0 effectively reserved: 1.0 W declared would not fit, but
     its 0.4 W modeled draw does *)
  Budget.set_admission_estimate ctl
    (Some (fun app -> if app = 3 then Some 0.4 else None));
  check_bool "modeled pricing admits what declared pricing would refuse" true
    (Budget.admit ctl ~app:3 ~watts:1.0 () = Budget.Admitted);
  let overdecl =
    Tm.gauge_value (Tm.gauge "budget.admission.overdeclared_w")
  in
  check_bool
    (Printf.sprintf "overdeclared gauge %.2f W" overdecl)
    true
    (Float.abs (overdecl -. 2.1) < 1e-9);
  Budget.stop ctl;
  System.shutdown sys

let suite =
  [
    QCheck_alcotest.to_alcotest prop_lstsq_recovers;
    Alcotest.test_case "lstsq pins an all-zero column to 0" `Quick
      test_lstsq_zero_column;
    Alcotest.test_case "model-check: held-out MAPE within 5%" `Slow
      test_check_validates_within_tolerance;
    Alcotest.test_case "model-check: error monotone in perturbation" `Slow
      test_check_error_monotone_in_perturbation;
    Alcotest.test_case "calibration search finds the minimum, deterministically"
      `Quick test_search_recovers_quadratic_minimum;
    Alcotest.test_case "calibrate_trace beats the mid-box start" `Slow
      test_calibrate_trace_improves_on_center;
    Alcotest.test_case "admission priced against the modeled draw" `Quick
      test_admission_model_pricing;
  ]
