(* Tests for the System assembly (presets, rails, counters) and psbox
   pay-as-you-go cycling. *)
open Psbox_engine
module System = Psbox_kernel.System
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let test_presets () =
  let am57 = System.am57 () in
  check_bool "am57 gpu" true (System.has_gpu am57);
  check_bool "am57 dsp" true (System.has_dsp am57);
  check_bool "am57 no wifi" false (System.has_wifi am57);
  check_int "am57 rails" 3 (List.length (System.rails am57));
  let bbb = System.bbb () in
  check_bool "bbb wifi" true (System.has_wifi bbb);
  check_int "bbb cores" 1 (Psbox_kernel.Smp.cores (System.smp bbb));
  let phone = System.phone () in
  check_bool "phone display" true (System.has_display phone);
  check_bool "phone gps" true (System.has_gps phone);
  check_int "phone rails" 5 (List.length (System.rails phone))

let test_missing_device_raises () =
  let sys = System.create () in
  Alcotest.check_raises "no gpu" (Invalid_argument "System.gpu: no GPU")
    (fun () -> ignore (System.gpu sys));
  Alcotest.check_raises "no dsp" (Invalid_argument "System.dsp: no DSP")
    (fun () -> ignore (System.dsp sys));
  Alcotest.check_raises "no wifi" (Invalid_argument "System.net: no WiFi")
    (fun () -> ignore (System.net sys))

let test_app_registry_and_counters () =
  let sys = System.create () in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  check_bool "distinct ids" true (a.System.app_id <> b.System.app_id);
  check_int "registry" 2 (List.length (System.apps sys));
  check_bool "lookup" true (System.app_by_id sys a.System.app_id = Some a);
  check_bool "missing lookup" true (System.app_by_id sys 999 = None);
  System.bump a "x" 1.5;
  System.bump a "x" 2.5;
  Alcotest.(check (float 1e-9)) "counter sums" 4.0 (System.counter a "x");
  Alcotest.(check (float 1e-9)) "absent counter" 0.0 (System.counter a "y")

let test_run_for_advances_clock () =
  let sys = System.create () in
  System.start sys;
  let t0 = System.now sys in
  System.run_for sys (Time.ms 123);
  check_int "advanced" (t0 + Time.ms 123) (System.now sys)

(* Pay-as-you-go: many short enter/leave cycles must keep working, with
   energy observable in each session and no residue across sessions. *)
let test_pay_as_you_go_cycles () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 4); W.Sleep (Time.ms 1) ])));
  let noisy = System.new_app sys ~name:"noisy" in
  ignore
    (W.spawn sys ~app:noisy ~name:"n" ~core:1
       (W.forever (fun () -> [ W.Compute (Time.ms 5) ])));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  let readings = ref [] in
  for _ = 1 to 50 do
    System.run_for sys (Time.ms 7);
    Psbox.enter box;
    System.run_for sys (Time.ms 20);
    readings := Psbox.read_mj box :: !readings;
    Psbox.leave box
  done;
  System.shutdown sys;
  let rs = Array.of_list !readings in
  check_int "all sessions observed" 50 (Array.length rs);
  check_bool "every session accumulated energy" true
    (Array.for_all (fun mj -> mj > 0.0) rs);
  (* early sessions ramp the psbox's private DVFS state; once warmed, the
     readings must be stable across sessions (no cross-session residue).
     readings are newest-first. *)
  let late = Array.sub rs 0 30 in
  let lo = Stats.min late and hi = Stats.max late in
  check_bool
    (Printf.sprintf "warmed sessions stable (%.2f..%.2f mJ)" lo hi)
    true
    (hi < 1.5 *. lo)

let test_power_bus_and_ledger () =
  let sys = System.am57 () in
  let transitions = ref 0 in
  ignore
    (Psbox_engine.Bus.subscribe (System.power_bus sys) (fun _ -> incr transitions));
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 4); W.Sleep (Time.ms 1) ])));
  System.start sys;
  System.run_for sys (Time.sec 2);
  check_bool "rail transitions forwarded machine-wide" true (!transitions > 0);
  (* the O(1) bus-fed ledger agrees with exact per-rail integration *)
  let now = System.now sys in
  let exact =
    List.fold_left
      (fun acc r -> acc +. Psbox_hw.Power_rail.energy_j r ~from:0 ~until:now)
      0.0 (System.rails sys)
  in
  check_bool
    (Printf.sprintf "ledger matches integrals (%.6f vs %.6f J)"
       (System.live_energy_j sys) exact)
    true
    (Float.abs (System.live_energy_j sys -. exact) < 1e-6);
  check_bool "live power positive" true (System.live_power_w sys > 0.0);
  System.shutdown sys

let suite =
  [
    ("platform presets", `Quick, test_presets);
    ("missing device raises", `Quick, test_missing_device_raises);
    ("app registry and counters", `Quick, test_app_registry_and_counters);
    ("run_for advances clock", `Quick, test_run_for_advances_clock);
    ("pay-as-you-go cycling", `Quick, test_pay_as_you_go_cycles);
    ("power bus and energy ledger", `Quick, test_power_bus_and_ledger);
  ]
