open Psbox_engine
module System = Psbox_kernel.System
module Temporal_sched = Psbox_kernel.Temporal_sched
module Smp = Psbox_kernel.Smp
module Psbox = Psbox_core.Psbox
module Accel_driver = Psbox_kernel.Accel_driver
module Accel = Psbox_hw.Accel
module Cpu_apps = Psbox_workloads.Cpu_apps
module Dsp_apps = Psbox_workloads.Dsp_apps
module W = Psbox_workloads.Workload

type result = {
  cpu_balloon_count : int;
  cpu_forced_idle_ms : float;
  dsp_balloon_count : int;
  dsp_overlap_wo_psbox : bool;
  dsp_overlap_w_psbox : bool;
}

(* Render a per-core occupancy strip: one character per time slot, the
   symbol of the app running there ('.' idle, '#' balloon-forced idle). *)
let schedule_strips ~cores ~symbols spans ~from ~until ~slots =
  let slot_span = max 1 ((until - from) / slots) in
  let strips = Array.make cores (Bytes.make slots '.') in
  for core = 0 to cores - 1 do
    strips.(core) <- Bytes.make slots '.'
  done;
  List.iter
    (fun s ->
      let core, app = s.Trace.tag in
      let symbol =
        if app = -1 then '.'
        else if app = -2 then '#'
        else
          match List.assoc_opt app symbols with Some c -> c | None -> '?'
      in
      if core >= 0 && core < cores then begin
        let k0 = max 0 ((s.Trace.start - from) / slot_span) in
        let k1 = min (slots - 1) ((s.Trace.stop - from) / slot_span) in
        for k = k0 to k1 do
          Bytes.set strips.(core) k symbol
        done
      end)
    spans;
  Array.to_list (Array.mapi (fun core b ->
      Printf.sprintf "core%d [%s]" core (Bytes.to_string b)) strips)

let cpu_part ~seed ~with_psbox =
  let sys = System.create ~seed ~cores:2 () in
  let calib = System.new_app sys ~name:"calib3d" in
  let body = System.new_app sys ~name:"body" in
  let others = System.new_app sys ~name:"others" in
  ignore (Cpu_apps.calib3d sys ~iterations:1_000_000 calib);
  ignore (Cpu_apps.bodytrack sys ~frames:1_000_000 ~threads:1 body);
  ignore (Cpu_apps.dedup sys ~chunks:1_000_000 ~threads:1 others);
  System.start sys;
  let box =
    if with_psbox then begin
      let b = Psbox.create sys ~app:calib.System.app_id ~hw:[ Psbox.Cpu ] in
      Psbox.enter b;
      Some b
    end
    else None
  in
  System.run_for sys (Time.ms 100);
  let t0 = System.now sys in
  System.run_for sys (Time.ms 150);
  let t1 = System.now sys in
  let excl_ms, balloon_count =
    match box with
    | Some b ->
        (Psbox.exclusive_us b /. 1e3, List.length (Psbox.exclusive_intervals b))
    | None -> (0.0, 0)
  in
  (match box with Some b -> Psbox.leave b | None -> ());
  Smp.stop (System.smp sys);
  let spans = Smp.sched_spans (System.smp sys) in
  let forced_idle_ms =
    List.fold_left
      (fun acc s ->
        let _, app = s.Trace.tag in
        if app = -2 then
          acc
          +. Time.to_ms_f (min s.Trace.stop t1 - max s.Trace.start t0)
        else acc)
      0.0
      (List.filter (fun s -> s.Trace.stop > t0 && s.Trace.start < t1) spans)
  in
  let strips =
    schedule_strips ~cores:2
      ~symbols:
        [ (calib.System.app_id, 'C'); (body.System.app_id, 'b');
          (others.System.app_id, 'o') ]
      spans ~from:t0 ~until:t1 ~slots:72
  in
  let rail_series =
    Report.series_of_timeline
      ~name:(if with_psbox then "CPU power w/ psbox" else "CPU power w/o psbox")
      (Psbox_hw.Power_rail.timeline (Psbox_hw.Cpu.rail (System.cpu sys)))
      ~from:t0 ~until:t1
  in
  ignore excl_ms;
  System.shutdown sys;
  (strips, rail_series, forced_idle_ms, balloon_count)

let commands_overlap cmds ~main_app =
  List.exists
    (fun c ->
      c.Accel.app = main_app
      && List.exists
           (fun c' ->
             c'.Accel.app <> main_app
             &&
             match (c.Accel.started_at, c.Accel.finished_at,
                    c'.Accel.started_at, c'.Accel.finished_at) with
             | Some s, Some f, Some s', Some f' -> min f f' > max s s'
             | _ -> false)
           cmds)
    cmds

let dsp_part ~seed ~with_psbox =
  let sys = System.create ~seed ~cores:2 ~dsp:true () in
  let dgemm = System.new_app sys ~name:"dgemm" in
  let sgemm = System.new_app sys ~name:"sgemm" in
  let monte = System.new_app sys ~name:"monte" in
  ignore (Dsp_apps.dgemm sys ~kernels:1_000_000 dgemm);
  ignore (Dsp_apps.sgemm sys ~kernels:1_000_000 sgemm);
  ignore (Dsp_apps.monte sys ~kernels:1_000_000 monte);
  System.start sys;
  let box =
    if with_psbox then begin
      let b = Psbox.create sys ~app:dgemm.System.app_id ~hw:[ Psbox.Dsp ] in
      Psbox.enter b;
      Some b
    end
    else None
  in
  System.run_for sys (Time.ms 200);
  let t0 = System.now sys in
  System.run_for sys (Time.sec 3);
  let t1 = System.now sys in
  let driver = System.dsp sys in
  let cmds =
    Temporal_sched.completed_items (Accel_driver.sched driver)
    |> List.filter (fun c ->
           match c.Accel.started_at with
           | Some s -> s >= t0 && s <= t1
           | None -> false)
  in
  let balloon_count =
    List.length
      (List.filter
         (fun (s, _) -> s >= t0 && s <= t1)
         (Temporal_sched.balloon_intervals (Accel_driver.sched driver)))
  in
  let rows =
    List.filteri (fun i _ -> i < 18) cmds
    |> List.map (fun c ->
           let s = match c.Accel.started_at with Some s -> s | None -> 0 in
           let f = match c.Accel.finished_at with Some f -> f | None -> 0 in
           [
             string_of_int c.Accel.id;
             (if c.Accel.app = dgemm.System.app_id then "dgemm*"
              else if c.Accel.app = sgemm.System.app_id then "sgemm"
              else "monte");
             Common.fmt_ms ~tight:true (Time.to_ms_f (s - t0));
             Common.fmt_ms ~tight:true (Time.to_ms_f (f - t0));
           ])
  in
  let overlap = commands_overlap cmds ~main_app:dgemm.System.app_id in
  let series =
    Report.series_of_timeline
      ~name:(if with_psbox then "DSP power w/ psbox" else "DSP power w/o psbox")
      (Psbox_hw.Power_rail.timeline
         (Psbox_hw.Accel.rail (Accel_driver.device driver)))
      ~from:t0 ~until:t1
  in
  (match box with Some b -> Psbox.leave b | None -> ());
  System.shutdown sys;
  (rows, series, overlap, balloon_count)

let run ?(seed = 9) () =
  let strips_wo, cpu_series_wo, _, _ = cpu_part ~seed ~with_psbox:false in
  let strips_w, cpu_series_w, forced_idle, cpu_balloons =
    cpu_part ~seed ~with_psbox:true
  in
  let rows_wo, dsp_series_wo, overlap_wo, _ = dsp_part ~seed ~with_psbox:false in
  let rows_w, dsp_series_w, overlap_w, balloons_w = dsp_part ~seed ~with_psbox:true in
  let result =
    {
      cpu_balloon_count = cpu_balloons;
      cpu_forced_idle_ms = forced_idle;
      dsp_balloon_count = balloons_w;
      dsp_overlap_wo_psbox = overlap_wo;
      dsp_overlap_w_psbox = overlap_w;
    }
  in
  let txt s = Report.Text s in
  let report =
    {
      Report.id = "fig7";
      title = "Resource multiplexing before/after psbox (paper Fig. 7)";
      items =
        [
          txt "(a) dual-core CPU schedule w/o psbox (C=calib3d b=bodytrack o=others .=idle)";
        ]
        @ List.map txt strips_wo
        @ [ Report.chart ~label:"" [ cpu_series_wo ] ]
        @ [
            txt
              (Printf.sprintf
                 "(b) w/ psbox: calib3d* runs in spatial balloons (#=forced \
                  idle, %s of core time)" (Common.fmt_ms forced_idle));
          ]
        @ List.map txt strips_w
        @ [ Report.chart ~label:"" [ cpu_series_w ] ]
        @ [
            txt "(c) DSP commands w/o psbox: commands overlap freely";
            Report.table ~headers:[ "cmd"; "app"; "start"; "finish" ] rows_wo;
            Report.chart ~label:"" [ dsp_series_wo ];
            txt
              (Printf.sprintf
                 "(d) DSP commands w/ psbox: dgemm*'s commands execute in \
                  temporal balloons (%d balloons; foreign overlap: %b)"
                 balloons_w overlap_w);
            Report.table ~headers:[ "cmd"; "app"; "start"; "finish" ] rows_w;
            Report.chart ~label:"" [ dsp_series_w ];
          ];
    }
  in
  (report, result)
