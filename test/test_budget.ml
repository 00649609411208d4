(* Tests for the power-budget control plane: the CFS quota and driver rate
   gates it actuates, cap convergence (raised and lowered mid-run) and
   graceful degradation, admission ordering, the entry points' input
   checks, and the auto-wired live splitters it measures through. *)
open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Temporal_sched = Psbox_kernel.Temporal_sched
module Split = Psbox_accounting.Split
module Budget = Psbox_budget.Budget
module W = Psbox_workloads.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spin sys app =
  ignore
    (W.spawn sys ~app ~name:"spin"
       (W.forever (fun () -> [ W.Compute (Time.ms 2); W.Count ("units", 1.0) ])))

let rate sys app span =
  let u0 = System.counter app "units" in
  System.run_for sys span;
  (System.counter app "units" -. u0) /. Time.to_sec_f span

(* The CFS quota alone halves a solo app's runtime: weight-based shares
   could never do this (a lone app always gets the whole core). *)
let test_quota_caps_solo_app () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  spin sys a;
  System.start sys;
  let free = rate sys a (Time.sec 1) in
  Smp.set_quota (System.smp sys) ~app:a.System.app_id (Some 0.5);
  System.run_for sys (Time.ms 100);
  let capped = rate sys a (Time.sec 1) in
  let share = capped /. free in
  check_bool
    (Printf.sprintf "half runtime (%.2f)" share)
    true
    (share > 0.45 && share < 0.55);
  Smp.set_quota (System.smp sys) ~app:a.System.app_id None;
  System.run_for sys (Time.ms 100);
  let restored = rate sys a (Time.sec 1) in
  check_bool "restored" true (restored /. free > 0.95);
  System.shutdown sys

(* A cap converges: the capped tenant's windowed mean lands within 10% of
   the cap, deterministically, and the co-runner keeps its throughput. *)
let test_cap_converges () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  spin sys a;
  spin sys b;
  System.start sys;
  System.run_for sys (Time.ms 200);
  let b_free = rate sys b (Time.sec 1) in
  let ctl = Budget.create sys () in
  Budget.set_cap ctl ~app:a.System.app_id ~watts:0.9;
  System.run_for sys (Time.sec 2);
  let meas = Budget.measured_w ctl ~app:a.System.app_id in
  check_bool
    (Printf.sprintf "within 10%% of cap (%.3f W)" meas)
    true
    (Float.abs (meas -. 0.9) /. 0.9 < 0.10);
  let b_capped = rate sys b (Time.sec 1) in
  check_bool "neighbor unaffected" true
    (Float.abs (b_capped -. b_free) /. b_free < 0.02);
  Budget.stop ctl;
  check_bool "quota released on stop" true
    (Smp.quota (System.smp sys) ~app:a.System.app_id = None);
  System.shutdown sys

(* A cap below the attributable floor pins the throttle at its floor; the
   app degrades gracefully instead of starving. *)
let test_cap_below_idle_floor () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  spin sys a;
  spin sys b;
  System.start sys;
  let ctl = Budget.create sys () in
  (* even never running would attribute ~0 W, but any progress at all
     draws more than 1 mW -- unreachable *)
  Budget.set_cap ctl ~app:a.System.app_id ~watts:0.001;
  System.run_for sys (Time.sec 2);
  check_bool "throttle at floor" true
    (Budget.throttle ctl ~app:a.System.app_id <= 0.02 +. 1e-9);
  let a_rate = rate sys a (Time.sec 1) in
  check_bool "still makes progress" true (a_rate > 0.0);
  Budget.stop ctl;
  System.shutdown sys

(* Raising a cap mid-run relaxes the throttle back up; a generous cap
   releases the actuators entirely. *)
let test_cap_raised_mid_run () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  spin sys a;
  spin sys b;
  System.start sys;
  let ctl = Budget.create sys () in
  Budget.set_cap ctl ~app:a.System.app_id ~watts:0.5;
  System.run_for sys (Time.sec 2);
  let thr_tight = Budget.throttle ctl ~app:a.System.app_id in
  let rate_tight = rate sys a (Time.sec 1) in
  check_bool "tight cap throttles" true (thr_tight < 0.5);
  Budget.set_cap ctl ~app:a.System.app_id ~watts:10.0;
  System.run_for sys (Time.sec 2);
  check_bool "throttle fully relaxed" true
    (Budget.throttle ctl ~app:a.System.app_id = 1.0);
  check_bool "quota released" true
    (Smp.quota (System.smp sys) ~app:a.System.app_id = None);
  let rate_free = rate sys a (Time.sec 1) in
  check_bool "throughput recovers" true (rate_free > rate_tight *. 1.5);
  Budget.stop ctl;
  System.shutdown sys

(* Two apps sharing one accelerator rail: capping one squeezes only its
   attributed share of that rail; the other keeps its throughput. *)
let test_accel_rail_shared () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ~gpu:true ()
  in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  let render app =
    ignore
      (W.spawn sys ~app ~name:"render"
         (W.forever (fun () ->
              [
                W.Compute (Time.us 200);
                W.Gpu_batch [ W.spec ~kind:"draw" ~work_s:1.0e-3 () ];
                W.Count ("batches", 1.0);
              ])))
  in
  render a;
  render b;
  System.start sys;
  System.run_for sys (Time.ms 500);
  let ctl = Budget.create sys () in
  (* an unreachable cap measures without throttling *)
  Budget.set_cap ctl ~app:a.System.app_id ~watts:100.0;
  System.run_for sys (Time.sec 1);
  let free = Budget.measured_w ctl ~app:a.System.app_id in
  check_bool "draws on the accel rail" true (free > 0.0);
  let b0 = System.counter b "batches" in
  Budget.set_cap ctl ~app:a.System.app_id ~watts:(free /. 3.0);
  System.run_for sys (Time.sec 2);
  let capped = Budget.measured_w ctl ~app:a.System.app_id in
  check_bool
    (Printf.sprintf "attributed draw drops (%.3f -> %.3f W)" free capped)
    true
    (capped < free /. 2.0);
  check_bool "accel gate armed" true
    (Temporal_sched.rate (Accel_driver.sched (System.gpu sys)) ~app:a.System.app_id
     <> None);
  check_bool "co-renderer keeps going" true
    (System.counter b "batches" -. b0 > 0.0);
  Budget.stop ctl;
  check_bool "gate released on stop" true
    (Temporal_sched.rate (Accel_driver.sched (System.gpu sys)) ~app:a.System.app_id
     = None);
  System.shutdown sys

(* Lowering a cap mid-run is the complement of raising it: a cap the app
   never reaches leaves every knob released, and the lowered one throttles
   the app and converges within 10%. *)
let test_cap_lowered_mid_run () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  spin sys a;
  spin sys b;
  System.start sys;
  let app = a.System.app_id in
  let ctl = Budget.create sys () in
  Budget.set_cap ctl ~app ~watts:2.0;
  System.run_for sys (Time.sec 1);
  let free = Budget.measured_w ctl ~app in
  check_bool
    (Printf.sprintf "2 W never binds (%.3f W)" free)
    true
    (free > 0.5 && free < 2.0);
  check_bool "unthrottled" true (Budget.throttle ctl ~app = 1.0);
  check_bool "no quota" true (Smp.quota (System.smp sys) ~app = None);
  Budget.set_cap ctl ~app ~watts:0.5;
  check_bool "cap reads back" true (Budget.effective_cap_w ctl ~app = 0.5);
  System.run_for sys (Time.sec 2);
  let meas = Budget.measured_w ctl ~app in
  check_bool
    (Printf.sprintf "within 10%% of the lowered cap (%.3f W)" meas)
    true
    (Float.abs (meas -. 0.5) /. 0.5 < 0.10);
  check_bool "throttled" true (Budget.throttle ctl ~app < 1.0);
  check_bool "quota armed" true (Smp.quota (System.smp sys) ~app <> None);
  Budget.stop ctl;
  System.shutdown sys

(* Admission: FIFO queue, strict head-first drain (no sneaking past a
   large waiter), rejection of what can never fit. *)
let test_admission_ordering () =
  let sys = System.create () in
  let ctl = Budget.create sys ~machine_budget_w:3.0 () in
  check_bool "A fits" true
    (Budget.admit ctl ~app:1 ~watts:2.0 () = Budget.Admitted);
  check_bool "B fits" true
    (Budget.admit ctl ~app:2 ~watts:0.9 () = Budget.Admitted);
  check_bool "C queues" true
    (Budget.admit ctl ~app:3 ~watts:1.5 ~queue:true () = Budget.Queued);
  check_bool "D queues behind C" true
    (Budget.admit ctl ~app:4 ~watts:0.2 ~queue:true () = Budget.Queued);
  check_bool "E rejected" true
    (Budget.admit ctl ~app:5 ~watts:5.0 () = Budget.Rejected);
  check_bool "F queues behind D" true
    (Budget.admit ctl ~app:6 ~watts:1.4 ~queue:true () = Budget.Queued);
  (try
     ignore (Budget.admit ctl ~app:1 ~watts:0.1 ());
     Alcotest.fail "duplicate admit should raise"
   with Invalid_argument _ -> ());
  (* 0.9 W freed: not enough for C at the head, and D must not sneak by *)
  Budget.release ctl ~app:2;
  check_bool "C still queued" false (Budget.admitted ctl ~app:3);
  check_bool "D held behind C" false (Budget.admitted ctl ~app:4);
  check_int "three waiting" 3 (Budget.queued ctl);
  (* 2 W more freed: C drains first, then D; F (1.4 W) no longer fits in
     the 1.3 W they leave and stops the drain *)
  Budget.release ctl ~app:1;
  check_bool "C admitted" true (Budget.admitted ctl ~app:3);
  check_bool "D admitted" true (Budget.admitted ctl ~app:4);
  check_bool "F still queued" false (Budget.admitted ctl ~app:6);
  check_int "one waiting" 1 (Budget.queued ctl);
  (* C's 1.5 W back: F drains *)
  Budget.release ctl ~app:3;
  check_bool "F admitted" true (Budget.admitted ctl ~app:6);
  check_int "queue drained" 0 (Budget.queued ctl);
  Budget.stop ctl;
  System.shutdown sys

(* NaN slips past a [< 0.0] check; every actuation entry point must
   reject it by name, before a NaN throttle reaches the quota and the
   gate rates. Infinity (no cap) and 0 (clamped to the floor) stay valid. *)
let nan_machine () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ~gpu:true
      ~wifi:true ()
  in
  let a = System.new_app sys ~name:"a" in
  spin sys a;
  System.start sys;
  (sys, a.System.app_id, Budget.create sys ())

let finish sys ctl =
  Budget.stop ctl;
  System.shutdown sys

let test_set_cap_rejects_nan () =
  let sys, app, ctl = nan_machine () in
  Alcotest.check_raises "nan cap" (Invalid_argument "Budget.set_cap: NaN cap")
    (fun () -> Budget.set_cap ctl ~app ~watts:Float.nan);
  Budget.set_cap ctl ~app ~watts:infinity;
  System.run_for sys (Time.ms 300);
  check_bool "infinite cap leaves the throttle at 1" true
    (Budget.throttle ctl ~app = 1.0);
  Budget.set_cap ctl ~app ~watts:0.0;
  System.run_for sys (Time.ms 300);
  let t = Budget.throttle ctl ~app in
  check_bool (Printf.sprintf "zero cap throttles to a finite floor (%g)" t) true
    (Float.is_finite t && t < 1.0);
  (match Psbox_kernel.Smp.quota (System.smp sys) ~app with
  | Some q -> check_bool "finite quota" true (Float.is_finite q)
  | None -> Alcotest.fail "zero cap left no quota");
  (match Temporal_sched.rate (Accel_driver.sched (System.gpu sys)) ~app with
  | Some r -> check_bool "finite gate rate" true (Float.is_finite r)
  | None -> Alcotest.fail "zero cap left no gate");
  finish sys ctl

(* Every watts-taking entry point rejects a negative value by name and
   changes nothing: no cap, no reservation, the budget it had. *)
let test_negative_watts_rejected () =
  let sys, app, ctl = nan_machine () in
  let rejects fn what f =
    Alcotest.check_raises fn
      (Invalid_argument (Printf.sprintf "Budget.%s: negative %s" fn what))
      f
  in
  rejects "set_cap" "cap" (fun () -> Budget.set_cap ctl ~app ~watts:(-0.5));
  check_bool "no cap set" true (Budget.effective_cap_w ctl ~app = infinity);
  Budget.set_machine_budget ctl (Some 3.0);
  rejects "admit" "demand" (fun () ->
      ignore (Budget.admit ctl ~app ~watts:(-1.0) ~queue:true ()));
  check_bool "nothing reserved" false (Budget.admitted ctl ~app);
  check_int "nothing queued" 0 (Budget.queued ctl);
  rejects "set_machine_budget" "budget" (fun () ->
      Budget.set_machine_budget ctl (Some (-3.0)));
  check_bool "budget kept" true (Budget.remaining_w ctl = 3.0);
  rejects "create" "machine budget" (fun () ->
      ignore (Budget.create sys ~machine_budget_w:(-1.0) ()));
  finish sys ctl

let test_admit_rejects_nan () =
  let sys, app, ctl = nan_machine () in
  Budget.set_machine_budget ctl (Some 3.0);
  Alcotest.check_raises "nan demand" (Invalid_argument "Budget.admit: NaN demand")
    (fun () -> ignore (Budget.admit ctl ~app ~watts:Float.nan ()));
  check_bool "nothing reserved" false (Budget.admitted ctl ~app);
  check_bool "budget intact" true (Budget.remaining_w ctl = 3.0);
  finish sys ctl

let test_machine_budget_rejects_nan () =
  let sys, _, ctl = nan_machine () in
  Alcotest.check_raises "nan budget"
    (Invalid_argument "Budget.set_machine_budget: NaN budget") (fun () ->
      Budget.set_machine_budget ctl (Some Float.nan));
  Budget.set_machine_budget ctl (Some infinity);
  check_bool "infinite budget kept" true (Budget.remaining_w ctl = infinity);
  Alcotest.check_raises "nan budget at create"
    (Invalid_argument "Budget.create: NaN machine budget") (fun () ->
      ignore (Budget.create sys ~machine_budget_w:Float.nan ()));
  finish sys ctl

(* The auto-wired CPU splitter attributes the whole rail while anyone is
   running -- its total matches the rail's own energy meter. *)
let test_live_cpu_attribution_total () =
  let sys =
    System.create ~cores:2 ~cpu_governor:Psbox_hw.Dvfs.Performance ()
  in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  spin sys a;
  spin sys b;
  System.start sys;
  System.run_for sys (Time.ms 100);
  let from = System.now sys in
  let lv = Split.live_cpu (System.smp sys) ~from in
  System.run_for sys (Time.sec 1);
  let until = System.now sys in
  let attributed = Split.total_attributed (Split.live_read lv ~until) in
  let rail = Psbox_hw.Cpu.rail (System.cpu sys) in
  let metered =
    Timeline.integrate (Psbox_hw.Power_rail.timeline rail) from until
  in
  check_bool
    (Printf.sprintf "full rail attributed (%.3f vs %.3f J)" attributed metered)
    true
    (Float.abs (attributed -. metered) /. metered < 0.01);
  Split.live_detach lv;
  System.shutdown sys

(* An app id is an index into the controllers' per-app arrays; a negative
   one is refused by name, before the budget loop arms or a splitter bills
   the rail to an app that can never run. *)
let test_negative_app_rejected () =
  let sys = System.create ~cores:2 () in
  let smp = System.smp sys in
  let lv = Split.live_cpu smp ~from:(System.now sys) in
  let ctl = Budget.create sys () in
  let rejects name f =
    Alcotest.check_raises name
      (Invalid_argument (name ^ ": app -1 is negative"))
      f
  in
  rejects "Smp.set_quota" (fun () -> Smp.set_quota smp ~app:(-1) (Some 0.5));
  rejects "Split.live_set_share" (fun () ->
      Split.live_set_share lv ~at:(System.now sys) ~app:(-1) 1.0);
  rejects "Budget.set_cap" (fun () ->
      Budget.set_cap ctl ~app:(-1) ~watts:0.4);
  System.start sys;
  System.run_for sys (Time.sec 1);
  check_int "no budget tick for a refused app" 0
    (List.length (Budget.history ctl ~app:(-1)));
  check_bool "nothing billed to app -1" true
    (not (List.mem_assoc (-1) (Split.live_read lv ~until:(System.now sys))));
  Budget.stop ctl;
  Split.live_detach lv

let suite =
  [
    Alcotest.test_case "quota caps a solo app" `Quick test_quota_caps_solo_app;
    Alcotest.test_case "negative app ids rejected" `Quick
      test_negative_app_rejected;
    Alcotest.test_case "cap converges within 10%" `Quick test_cap_converges;
    Alcotest.test_case "cap below idle floor degrades gracefully" `Quick
      test_cap_below_idle_floor;
    Alcotest.test_case "cap raised mid-run relaxes" `Quick
      test_cap_raised_mid_run;
    Alcotest.test_case "two apps share one accel rail" `Quick
      test_accel_rail_shared;
    Alcotest.test_case "cap lowered mid-run throttles" `Quick
      test_cap_lowered_mid_run;
    Alcotest.test_case "admission drains head-first" `Quick
      test_admission_ordering;
    Alcotest.test_case "live_cpu attributes the full rail" `Quick
      test_live_cpu_attribution_total;
    Alcotest.test_case "set_cap rejects NaN" `Quick test_set_cap_rejects_nan;
    Alcotest.test_case "negative watts rejected by name" `Quick
      test_negative_watts_rejected;
    Alcotest.test_case "admit rejects NaN" `Quick test_admit_rejects_nan;
    Alcotest.test_case "machine budget rejects NaN" `Quick
      test_machine_budget_rejects_nan;
  ]
