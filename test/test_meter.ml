(* Tests for the metering library: samples, DAQ, model fit. *)
open Psbox_engine
open Psbox_meter

let check_float e = Alcotest.(check (float e))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let test_sample_energy () =
  let s =
    [|
      Sample.make 0 1.0;
      Sample.make (Time.sec 1) 3.0;
      Sample.make (Time.sec 2) 3.0;
    |]
  in
  (* rectangle rule: 1 W for 1 s + 3 W for 1 s *)
  check_float 1e-9 "energy J" 4.0 (Sample.energy_j s);
  check_float 1e-9 "energy mJ" 4000.0 (Sample.energy_mj s);
  check_float 1e-9 "mean W" 2.0 (Sample.mean_w s)

let test_sample_between () =
  let s = Array.init 10 (fun i -> Sample.make (i * 100) (float_of_int i)) in
  let w = Sample.between s ~from:250 ~until:650 in
  check_int "window" 4 (Array.length w);
  check_float 1e-9 "first" 3.0 w.(0).Sample.watts

let test_daq_capture () =
  let sim = Sim.create () in
  let rail = Psbox_hw.Power_rail.create sim ~name:"r" ~idle_w:1.0 in
  Sim.run_until sim (Time.ms 5);
  Psbox_hw.Power_rail.set_power rail 2.0;
  Sim.run_until sim (Time.ms 10);
  let daq = Daq.create ~rate_hz:1000 () in
  check_int "period" (Time.ms 1) (Daq.period daq);
  let s = Daq.capture daq rail ~from:0 ~until:(Time.ms 10) in
  check_int "11 samples" 11 (Array.length s);
  check_float 1e-9 "before step" 1.0 s.(4).Sample.watts;
  check_float 1e-9 "after step" 2.0 s.(6).Sample.watts

let test_daq_noise_reproducible () =
  let sim = Sim.create () in
  let rail = Psbox_hw.Power_rail.create sim ~name:"r" ~idle_w:1.0 in
  Sim.run_until sim (Time.ms 10);
  let mk () = Daq.create ~rate_hz:1000 ~noise_w:0.05 ~rng:(Rng.create ~seed:3) () in
  let a = Daq.capture (mk ()) rail ~from:0 ~until:(Time.ms 10) in
  let b = Daq.capture (mk ()) rail ~from:0 ~until:(Time.ms 10) in
  check_bool "noisy" true (Array.exists (fun s -> s.Sample.watts <> 1.0) a);
  check_bool "deterministic given seed" true (a = b);
  check_bool "never negative" true (Array.for_all (fun s -> s.Sample.watts >= 0.0) a)

let test_model_meter_fit () =
  (* ground truth: P = 0.3 + 2.0*u1 + 0.5*u2 *)
  let rng = Rng.create ~seed:9 in
  let obs =
    List.init 60 (fun _ ->
        let u1 = Rng.float rng 1.0 and u2 = Rng.float rng 1.0 in
        ([| u1; u2 |], 0.3 +. (2.0 *. u1) +. (0.5 *. u2)))
  in
  let m = Model_meter.fit obs in
  check_float 1e-6 "intercept" 0.3 (Model_meter.intercept m);
  check_float 1e-6 "beta1" 2.0 (Model_meter.coeffs m).(0);
  check_float 1e-6 "beta2" 0.5 (Model_meter.coeffs m).(1);
  check_float 1e-6 "rmse" 0.0 (Model_meter.rmse m obs);
  check_float 1e-6 "predict" 1.55 (Model_meter.predict m [| 0.5; 0.5 |])

let test_model_meter_noisy_fit () =
  let rng = Rng.create ~seed:10 in
  let obs =
    List.init 500 (fun _ ->
        let u = Rng.float rng 1.0 in
        ([| u |], 1.0 +. (3.0 *. u) +. Rng.gaussian rng ~mu:0.0 ~sigma:0.05))
  in
  let m = Model_meter.fit obs in
  check_bool "slope close" true (Float.abs ((Model_meter.coeffs m).(0) -. 3.0) < 0.05);
  check_bool "rmse near noise floor" true (Model_meter.rmse m obs < 0.07)

let test_model_meter_degenerate () =
  Alcotest.check_raises "not enough obs"
    (Invalid_argument "Model_meter.fit: not enough observations") (fun () ->
      ignore (Model_meter.fit [ ([| 1.0 |], 1.0) ]))

(* One solver serves both fits; the singular floor is the caller's: the
   plain fit rejects collinear utilizations, while a 1e-20 pivot (a ridge
   pinning a zero column) passes a 1e-30 floor. *)
let test_solver_floor () =
  let collinear =
    List.init 6 (fun i ->
        let u = float_of_int i in
        ([| u; 2.0 *. u |], u))
  in
  Alcotest.check_raises "collinear rejected"
    (Invalid_argument "Model_meter.fit: singular system (collinear inputs)")
    (fun () -> ignore (Model_meter.fit collinear));
  let system () = ([| [| 2.0; 0.0 |]; [| 0.0; 1e-20 |] |], [| 4.0; 0.0 |]) in
  Alcotest.check_raises "tiny pivot under a 1e-12 floor" (Invalid_argument "tiny")
    (fun () ->
      let a, b = system () in
      ignore (Model_meter.solve ~floor:1e-12 ~singular:"tiny" a b));
  let a, b = system () in
  let x = Model_meter.solve ~floor:1e-30 ~singular:"tiny" a b in
  check_float 1e-12 "x0" 2.0 x.(0);
  check_float 1e-12 "pinned x1" 0.0 x.(1)

let suite =
  [
    ("sample energy", `Quick, test_sample_energy);
    ("sample between", `Quick, test_sample_between);
    ("daq capture", `Quick, test_daq_capture);
    ("daq noise reproducible", `Quick, test_daq_noise_reproducible);
    ("model meter exact fit", `Quick, test_model_meter_fit);
    ("model meter noisy fit", `Quick, test_model_meter_noisy_fit);
    ("model meter degenerate input", `Quick, test_model_meter_degenerate);
    ("least-squares solver floor", `Quick, test_solver_floor);
  ]
