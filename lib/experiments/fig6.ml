open Psbox_engine
module System = Psbox_kernel.System
module Psbox = Psbox_core.Psbox
module Split = Psbox_accounting.Split
module Cpu_apps = Psbox_workloads.Cpu_apps
module Gpu_apps = Psbox_workloads.Gpu_apps
module Dsp_apps = Psbox_workloads.Dsp_apps
module Wifi_apps = Psbox_workloads.Wifi_apps

type scenario = {
  sc_label : string;
  sc_psbox_mj : float;
  sc_prior_mj : float;
}

type row = {
  row_hw : string;
  row_app : string;
  row_alone_mj : float;
  row_scenarios : scenario list;
  row_chart : Report.series list;
}

(* One measurement: build a fresh system, spawn the main app's fixed job and
   optional co-runners, run to completion; return the meters. [mode] selects
   what to observe: the raw rail (`Alone), a psbox (`Psbox) or the prior
   accounting's share (`Prior). *)
type measurement = { m_mj : float; m_series : Report.series option }

let measure ~seed ~make_sys ~rail_of ~spawn_main ~spawn_co ~psbox_target
    ~usages_of ~split_fn ~(mode : [ `Alone | `Prior | `Psbox ]) ~label () =
  let sys = make_sys ~seed in
  let main = System.new_app sys ~name:"main" in
  spawn_main sys main;
  spawn_co sys;
  let rail = rail_of sys in
  match mode with
  | `Alone | `Prior ->
      let job = Common.run_job sys ~rail ~main in
      let mj =
        match mode with
        | `Psbox -> assert false
        | `Alone -> job.Common.rail_mj
        | `Prior ->
            let usages = usages_of sys in
            let split =
              split_fn
                (Psbox_hw.Power_rail.timeline rail)
                usages ~from:job.Common.t0 ~until:job.Common.t1
            in
            Common.attributed_mj split ~app:main
      in
      let series =
        if mode = `Alone then
          Some
            (Report.series_of_timeline ~name:label
               (Psbox_hw.Power_rail.timeline rail)
               ~from:job.Common.t0 ~until:job.Common.t1)
        else None
      in
      System.shutdown sys;
      { m_mj = mj; m_series = series }
  | `Psbox ->
      let box = Psbox.create sys ~app:main.System.app_id ~hw:[ psbox_target ] in
      System.start sys;
      Psbox.enter box;
      let t0 = System.now sys in
      Psbox_workloads.Workload.run_until_idle sys ~apps:[ main ]
        ~timeout:(Time.sec 30);
      ignore t0;
      let mj = Psbox.read_mj box in
      let series =
        Some
          (Report.series_of_samples ~name:label
             (Psbox.sample ~period:(Time.ms 1) box))
      in
      Psbox.leave box;
      System.shutdown sys;
      { m_mj = mj; m_series = series }

let build_row ~seed ~hw ~app_name ~make_sys ~rail_of ~spawn_main ~co_list
    ~psbox_target ~usages_of ?(split_fn = Split.usage_split) () =
  let measure =
    measure ~make_sys ~rail_of ~spawn_main ~psbox_target ~usages_of ~split_fn
  in
  let nobody _ = () in
  let alone =
    measure ~seed ~spawn_co:nobody ~mode:`Alone ~label:(app_name ^ " alone") ()
  in
  let charts = ref (Option.to_list alone.m_series) in
  let scenarios =
    List.mapi
      (fun i (label, spawn_co) ->
        let seed_i = seed + ((i + 1) * 101) in
        let pb =
          measure ~seed:seed_i ~spawn_co ~mode:`Psbox
            ~label:(Printf.sprintf "%s [%s] psbox" app_name label)
            ()
        in
        (match pb.m_series with Some s -> charts := !charts @ [ s ] | None -> ());
        let prior = measure ~seed:seed_i ~spawn_co ~mode:`Prior ~label () in
        { sc_label = label; sc_psbox_mj = pb.m_mj; sc_prior_mj = prior.m_mj })
      co_list
  in
  {
    row_hw = hw;
    row_app = app_name;
    row_alone_mj = alone.m_mj;
    row_scenarios = scenarios;
    row_chart = !charts;
  }

(* ---- the four rows ------------------------------------------------ *)

let cpu_row ?(seed = 11) () =
  build_row ~seed ~hw:"CPU" ~app_name:"calib3d"
    ~make_sys:(fun ~seed -> System.create ~seed ~cores:2 ())
    ~rail_of:(fun sys -> Psbox_hw.Cpu.rail (System.cpu sys))
    ~spawn_main:(fun sys main ->
      ignore (Cpu_apps.calib3d sys ~iterations:100 ~threads:1 main))
    ~co_list:
      [
        ( "w/ body",
          fun sys ->
            ignore
              (Cpu_apps.bodytrack sys ~frames:1_000_000 ~threads:1
                 (System.new_app sys ~name:"body")) );
        ( "w/ dedup",
          fun sys ->
            ignore
              (Cpu_apps.dedup sys ~chunks:1_000_000 ~threads:1
                 (System.new_app sys ~name:"dedup")) );
      ]
    ~psbox_target:Psbox.Cpu ~usages_of:Common.cpu_usages ()

let dsp_row ?(seed = 23) () =
  build_row ~seed ~hw:"DSP" ~app_name:"dgemm"
    ~make_sys:(fun ~seed -> System.create ~seed ~cores:2 ~dsp:true ())
    ~rail_of:(fun sys ->
      Psbox_hw.Accel.rail (Psbox_kernel.Accel_driver.device (System.dsp sys)))
    ~spawn_main:(fun sys main -> ignore (Dsp_apps.dgemm sys ~kernels:16 main))
    ~co_list:
      [
        ( "w/ sgemm",
          fun sys ->
            ignore (Dsp_apps.sgemm sys ~kernels:1_000_000 (System.new_app sys ~name:"sgemm")) );
        ( "w/ monte+sgemm",
          fun sys ->
            ignore (Dsp_apps.monte sys ~kernels:1_000_000 (System.new_app sys ~name:"monte"));
            ignore (Dsp_apps.sgemm sys ~kernels:1_000_000 (System.new_app sys ~name:"sgemm")) );
      ]
    ~psbox_target:Psbox.Dsp
    ~usages_of:(fun sys -> Common.accel_usages (System.dsp sys))
    ()

let gpu_row ?(seed = 37) () =
  build_row ~seed ~hw:"GPU" ~app_name:"browser"
    ~make_sys:(fun ~seed -> System.create ~seed ~cores:2 ~gpu:true ())
    ~rail_of:(fun sys ->
      Psbox_hw.Accel.rail (Psbox_kernel.Accel_driver.device (System.gpu sys)))
    ~spawn_main:(fun sys main -> ignore (Gpu_apps.browser sys ~pages:2 main))
    ~co_list:
      [
        ( "w/ magic",
          fun sys ->
            ignore (Gpu_apps.magic sys ~frames:1_000_000 (System.new_app sys ~name:"magic")) );
        ( "w/ triangle",
          fun sys ->
            ignore
              (Gpu_apps.triangle sys ~batches:1_000_000 (System.new_app sys ~name:"triangle")) );
      ]
    ~psbox_target:Psbox.Gpu
    ~usages_of:(fun sys -> Common.accel_usages (System.gpu sys))
    ()

let wifi_row ?(seed = 53) () =
  build_row ~seed ~hw:"WiFi" ~app_name:"browser"
    ~make_sys:(fun ~seed -> System.bbb ~seed ())
    ~rail_of:(fun sys ->
      Psbox_hw.Wifi.rail (Psbox_kernel.Net_sched.nic (System.net sys)))
    ~spawn_main:(fun sys main -> ignore (Wifi_apps.browser sys ~objects:6 main))
    ~co_list:
      [
        ( "w/ scp",
          fun sys ->
            ignore (Wifi_apps.scp sys ~kb:1_000_000 (System.new_app sys ~name:"scp")) );
        ( "w/ wget",
          fun sys ->
            ignore (Wifi_apps.wget sys ~kb:1_000_000 (System.new_app sys ~name:"wget")) );
      ]
    ~psbox_target:Psbox.Wifi ~usages_of:Common.wifi_usages
    ~split_fn:(Split.windowed_by_count ?window:None) ()

let run ?(seed = 1) () =
  let rows =
    [
      cpu_row ~seed:(seed + 10) ();
      dsp_row ~seed:(seed + 20) ();
      gpu_row ~seed:(seed + 30) ();
      wifi_row ~seed:(seed + 40) ();
    ]
  in
  let table_rows =
    List.concat_map
      (fun row ->
        List.map
          (fun sc ->
            [
              row.row_hw;
              Printf.sprintf "%s %s" row.row_app sc.sc_label;
              Report.fmt_mj row.row_alone_mj;
              Common.fmt_attributed ~alone:row.row_alone_mj sc.sc_psbox_mj;
              Common.fmt_attributed ~alone:row.row_alone_mj sc.sc_prior_mj;
            ])
          row.row_scenarios)
      rows
  in
  let charts =
    List.map
      (fun row ->
        Report.chart
          ~label:(Printf.sprintf "%s power traces (%s)" row.row_hw row.row_app)
          row.row_chart)
      rows
  in
  let report =
    {
      Report.id = "fig6";
      title = "Elimination of power entanglement (paper Fig. 6)";
      items =
        [
          Report.Text
            "Energy of the power-aware app per fixed job; deltas vs the \
             app running alone. psbox stays consistent; the prior \
             usage-based accounting swings.";
          Report.table
            ~headers:[ "HW"; "scenario"; "alone"; "psbox"; "prior approach" ]
            table_rows;
        ]
        @ charts;
    }
  in
  (report, rows)
