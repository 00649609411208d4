(* LTE model, report rendering, and API cross-consistency tests. *)
open Psbox_engine
module Lte = Psbox_hw.Lte
module System = Psbox_kernel.System
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Report = Psbox_experiments.Report

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)
let check_float e = Alcotest.(check (float e))

(* ---- LTE ------------------------------------------------------------ *)

let test_lte_rrc_machine () =
  let sim = Sim.create () in
  let r = Lte.create sim in
  check_bool "idle" true (Lte.state r = Lte.Idle);
  let sent = ref false in
  Lte.send r ~app:1 ~bytes:10_000 ~on_sent:(fun () -> sent := true);
  check_bool "promoting" true (Lte.state r = Lte.Promoting);
  Sim.run_until sim (Time.ms 2_500);
  check_bool "dch after promotion" true (Lte.state r = Lte.Dch);
  check_bool "transfer done" true !sent;
  check_int "bytes" 10_000 (Lte.sent_bytes r ~app:1);
  (* the tail: DCH for 5 s, FACH for 12 s, then idle — all network-timed *)
  Sim.run_until sim (Time.sec 8);
  check_bool "fach tail" true (Lte.state r = Lte.Fach);
  Sim.run_until sim (Time.sec 25);
  check_bool "idle again" true (Lte.state r = Lte.Idle)

let test_lte_power_levels () =
  let sim = Sim.create () in
  let r = Lte.create sim in
  check_float 1e-9 "idle power" 0.02 (Psbox_hw.Power_rail.power (Lte.rail r));
  Lte.send r ~app:1 ~bytes:1_000 ~on_sent:(fun () -> ());
  check_float 1e-9 "promotion power" 0.45 (Psbox_hw.Power_rail.power (Lte.rail r));
  Sim.run_until sim (Time.ms 2_500);
  check_float 1e-9 "dch power" 1.0 (Psbox_hw.Power_rail.power (Lte.rail r))

let test_lte_traffic_holds_state () =
  let sim = Sim.create () in
  let r = Lte.create sim in
  (* chatter every 3 s keeps the radio out of idle indefinitely *)
  let rec ping n =
    if n > 0 then
      Lte.send r ~app:2 ~bytes:500 ~on_sent:(fun () ->
          ignore (Sim.schedule_after sim (Time.sec 3) (fun () -> ping (n - 1))))
  in
  ping 10;
  Sim.run_until sim (Time.sec 30);
  check_bool "never idle under chatter" true (Lte.state r <> Lte.Idle);
  check_int "all pings sent" 5_000 (Lte.sent_bytes r ~app:2)

let test_lte_swing_demonstrated () =
  let _, res = Psbox_experiments.Lte_case.run () in
  check_bool
    (Printf.sprintf "uncontrollable state swings the cost (%.1f%%)"
       res.Psbox_experiments.Lte_case.swing_pct)
    true
    (Float.abs res.Psbox_experiments.Lte_case.swing_pct > 15.0)

(* ---- Report rendering ------------------------------------------------ *)

let render r = Format.asprintf "%a" Report.render r

(* substring search *)
let contains haystack needle =
  let nh = String.length haystack and nn = String.length needle in
  let rec at i = i + nn <= nh && (String.sub haystack i nn = needle || at (i + 1)) in
  nn = 0 || at 0

let test_report_table_renders () =
  let r =
    {
      Report.id = "x";
      title = "demo";
      items =
        [
          Report.table ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ];
          Report.Text "note";
        ];
    }
  in
  let s = render r in
  check_bool "has title" true (contains s "== x: demo ==");
  check_bool "has header row" true (contains s "| a   | bb |");
  check_bool "has data" true (contains s "| 333 | 4  |");
  check_bool "has note" true (contains s "note")

let test_report_chart_renders () =
  let series =
    {
      Report.s_name = "power";
      s_points = List.init 100 (fun i -> (float_of_int i /. 100.0, sin (float_of_int i)));
      s_unit = "W";
    }
  in
  let r =
    { Report.id = "c"; title = "chart"; items = [ Report.chart ~label:"L" [ series ] ] }
  in
  let s = render r in
  check_bool "sparkline present" true (contains s "power");
  check_bool "range present" true (contains s "W over")

let test_report_series_of_samples_downsamples () =
  let samples =
    Array.init 10_000 (fun i ->
        Psbox_meter.Sample.make (i * 1000) (float_of_int (i mod 5)))
  in
  let s = Report.series_of_samples ~name:"s" samples in
  check_bool "downsampled" true (List.length s.Report.s_points <= 240)

(* ---- API cross-consistency ------------------------------------------ *)

(* read_mj (exact integration) and sample (resampled train) must agree. *)
let test_read_and_sample_agree () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 7); W.Sleep (Time.ms 3) ])));
  let b = System.new_app sys ~name:"b" in
  ignore
    (W.spawn sys ~app:b ~name:"t" ~core:1
       (W.forever (fun () -> [ W.Compute (Time.ms 9); W.Sleep (Time.ms 2) ])));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  System.run_for sys (Time.sec 1);
  let exact = Psbox.read_mj box in
  let sampled = Psbox_meter.Sample.energy_mj (Psbox.sample box) in
  check_bool
    (Printf.sprintf "agree within 2%% (%.1f vs %.1f)" exact sampled)
    true
    (Float.abs (exact -. sampled) /. exact < 0.02);
  Psbox.leave box;
  System.shutdown sys

let suite =
  [
    ("lte rrc machine", `Quick, test_lte_rrc_machine);
    ("lte power levels", `Quick, test_lte_power_levels);
    ("lte traffic holds state", `Quick, test_lte_traffic_holds_state);
    ("lte swing demonstrated", `Quick, test_lte_swing_demonstrated);
    ("report table renders", `Quick, test_report_table_renders);
    ("report chart renders", `Quick, test_report_chart_renders);
    ("report downsamples samples", `Quick, test_report_series_of_samples_downsamples);
    ("read and sample agree", `Quick, test_read_and_sample_agree);
  ]
