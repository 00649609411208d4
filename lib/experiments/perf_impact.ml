open Psbox_engine
module System = Psbox_kernel.System
module Temporal_sched = Psbox_kernel.Temporal_sched
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Psbox = Psbox_core.Psbox
module Cpu_apps = Psbox_workloads.Cpu_apps
module Gpu_apps = Psbox_workloads.Gpu_apps
module Dsp_apps = Psbox_workloads.Dsp_apps
module Wifi_apps = Psbox_workloads.Wifi_apps

type hw_impact = {
  p_hw : string;
  p_lat_before_us : float;
  p_lat_after_us : float;
  p_total_loss_pct : float;
}

let mean_of = function [] -> 0.0 | l -> Psbox_engine.Stats.mean (Array.of_list l)

(* Run a co-run scenario for [window], optionally with the first app
   sandboxed; return (mean request latency of the observed app in us, total
   work rate). The latency metric follows the app that the psbox encloses —
   balloon switches are what it pays for. *)
let scenario ~make_sys ~spawn_all ~target ~latencies_of ~total_of ~sandbox
    ~window ~seed =
  let sys = make_sys ~seed in
  let apps = spawn_all sys in
  let star = List.hd apps in
  System.start sys;
  let box =
    if sandbox then begin
      let b = Psbox.create sys ~app:star.System.app_id ~hw:[ target ] in
      Psbox.enter b;
      Some b
    end
    else None
  in
  System.run_for sys (Time.ms 500);
  let mark = total_of sys apps in
  let lat_mark = List.length (latencies_of sys star) in
  System.run_for sys window;
  let total = (total_of sys apps -. mark) /. Time.to_sec_f window in
  let lats = latencies_of sys star in
  let fresh = List.filteri (fun i _ -> i >= lat_mark) lats in
  (match box with Some b -> Psbox.leave b | None -> ());
  System.shutdown sys;
  (mean_of fresh, total)

let impact ~hw ~make_sys ~spawn_all ~target ~latencies_of ~total_of ~window
    ~seed =
  let go sandbox =
    scenario ~make_sys ~spawn_all ~target ~latencies_of ~total_of ~sandbox
      ~window ~seed
  in
  let lat0, tot0 = go false in
  let lat1, tot1 = go true in
  {
    p_hw = hw;
    p_lat_before_us = lat0;
    p_lat_after_us = lat1;
    p_total_loss_pct = -.Common.pct tot0 tot1;
  }

let counters key sys apps =
  ignore sys;
  List.fold_left (fun acc a -> acc +. System.counter a key) 0.0 apps

let run ?(seed = 2) () =
  let cpu =
    impact ~hw:"CPU" ~seed
      ~make_sys:(fun ~seed -> System.create ~seed ~cores:2 ())
      ~spawn_all:(fun sys ->
        List.map
          (fun name ->
            let app = System.new_app sys ~name in
            ignore (Cpu_apps.calib3d sys ~iterations:1_000_000 app);
            app)
          [ "calib1"; "calib2"; "calib3" ])
      ~target:Psbox.Cpu
      ~latencies_of:(fun sys star ->
        Array.to_list
          (Smp.wakeup_latencies_of (System.smp sys) ~app:star.System.app_id))
      ~total_of:(counters "kb") ~window:(Time.sec 2)
  in
  let gpu =
    impact ~hw:"GPU" ~seed:(seed + 1)
      ~make_sys:(fun ~seed -> System.create ~seed ~cores:2 ~gpu:true ())
      ~spawn_all:(fun sys ->
        List.map
          (fun name ->
            let app = System.new_app sys ~name in
            ignore (Gpu_apps.cube sys ~frames:1_000_000 ~cmds:8 ~units:2 app);
            app)
          [ "cube1"; "cube2" ])
      ~target:Psbox.Gpu
      ~latencies_of:(fun sys star ->
        Temporal_sched.dispatch_latencies_us (Accel_driver.sched (System.gpu sys))
        |> List.filter_map (fun (a, l) ->
               if a = star.System.app_id then Some l else None))
      ~total_of:(counters "cmds") ~window:(Time.sec 2)
  in
  let dsp =
    impact ~hw:"DSP" ~seed:(seed + 2)
      ~make_sys:(fun ~seed -> System.create ~seed ~cores:2 ~dsp:true ())
      ~spawn_all:(fun sys ->
        List.map
          (fun name ->
            let app = System.new_app sys ~name in
            ignore (Dsp_apps.sgemm sys ~kernels:1_000_000 app);
            app)
          [ "sgemm1"; "sgemm2"; "sgemm3" ])
      ~target:Psbox.Dsp
      ~latencies_of:(fun sys star ->
        Temporal_sched.dispatch_latencies_us (Accel_driver.sched (System.dsp sys))
        |> List.filter_map (fun (a, l) ->
               if a = star.System.app_id then Some l else None))
      ~total_of:(counters "gflops") ~window:(Time.sec 4)
  in
  let wifi =
    impact ~hw:"WiFi" ~seed:(seed + 3)
      ~make_sys:(fun ~seed -> System.bbb ~seed ())
      ~spawn_all:(fun sys ->
        List.map
          (fun name ->
            let app = System.new_app sys ~name in
            ignore (Wifi_apps.wget sys ~kb:1_000_000 app);
            app)
          [ "wget1"; "wget2" ])
      ~target:Psbox.Wifi
      ~latencies_of:(fun sys star ->
        Temporal_sched.dispatch_latencies_us (Net_sched.sched (System.net sys))
        |> List.filter_map (fun (a, l) ->
               if a = star.System.app_id then Some l else None))
      ~total_of:(counters "kb") ~window:(Time.sec 2)
  in
  let results = [ cpu; gpu; dsp; wifi ] in
  let rows =
    List.map
      (fun r ->
        [
          r.p_hw;
          Common.fmt_us r.p_lat_before_us;
          Common.fmt_us r.p_lat_after_us;
          Common.fmt_us_delta (r.p_lat_after_us -. r.p_lat_before_us);
          Common.fmt_pct1 r.p_total_loss_pct;
        ])
      results
  in
  let report =
    {
      Report.id = "sec62";
      title = "Performance impact (paper Sec. 6.2)";
      items =
        [
          Report.table
            ~headers:
              [ "HW"; "latency w/o psbox"; "latency w/ psbox"; "increase";
                "total throughput loss" ]
            rows;
        ];
    }
  in
  (report, results)
