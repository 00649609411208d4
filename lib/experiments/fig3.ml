open Psbox_engine
module System = Psbox_kernel.System
module Temporal_sched = Psbox_kernel.Temporal_sched
module W = Psbox_workloads.Workload
module Accel_driver = Psbox_kernel.Accel_driver
module Accel = Psbox_hw.Accel

type a_result = {
  one_instance_w : float;
  two_instances_w : float;
  doubled_w : float;
}

type b_result = {
  commands : (int * string * float * float) list;
  overlap_s : float;
}

type c_result = {
  after_idle_mj : float;
  after_busy_mj : float;
  after_idle_peak_w : float;
  after_busy_peak_w : float;
}

let busy_loop n = W.repeat n (fun _ -> [ W.Compute (Time.ms 10) ])

(* (a) one CPU-bound instance on core 0, then additionally a second instance
   on core 1, on a dual-core CPU with a single rail. *)
let run_a ?(seed = 5) () =
  let run instances =
    let sys = System.create ~seed ~cores:2 () in
    for i = 0 to instances - 1 do
      let app = System.new_app sys ~name:(Printf.sprintf "inst%d" i) in
      ignore (W.spawn sys ~app ~name:"loop" ~core:i (busy_loop 1_000_000))
    done;
    System.start sys;
    (* settle past the DVFS ramp, then measure *)
    System.run_for sys (Time.ms 300);
    let t0 = System.now sys in
    System.run_for sys (Time.sec 1);
    let t1 = System.now sys in
    let rail = Psbox_hw.Cpu.rail (System.cpu sys) in
    let w = Timeline.mean (Psbox_hw.Power_rail.timeline rail) t0 t1 in
    let series =
      Report.series_of_timeline
        ~name:(Printf.sprintf "%d instance(s)" instances)
        (Psbox_hw.Power_rail.timeline rail)
        ~from:t0 ~until:t1
    in
    System.shutdown sys;
    (w, series)
  in
  let one_w, s1 = run 1 in
  let two_w, s2 = run 2 in
  let doubled =
    { s1 with Report.s_name = "1 instance (doubled)";
      s_points = List.map (fun (t, v) -> (t, 2.0 *. v)) s1.Report.s_points }
  in
  ( { one_instance_w = one_w; two_instances_w = two_w; doubled_w = 2.0 *. one_w },
    [ s2; doubled ] )

(* (b) three GPU commands: command 1 is long; commands 2 and 3 are of the
   same type, but 2 overlaps 1 in time. *)
let run_b ?(seed = 6) () =
  let sys = System.create ~seed ~cores:2 ~gpu:true () in
  let app = System.new_app sys ~name:"gpu-app" in
  let script =
    W.repeat 1 (fun _ ->
        [
          W.Gpu_batch
            [
              W.spec ~kind:"cmd1" ~work_s:0.012 ~units:2 ~intensity:1.3 ();
              W.spec ~kind:"cmd2" ~work_s:0.006 ~units:2 ~intensity:0.9 ();
            ];
          W.Gpu_batch [ W.spec ~kind:"cmd3" ~work_s:0.006 ~units:2 ~intensity:0.9 () ];
        ])
  in
  ignore (W.spawn sys ~app ~name:"submitter" script);
  System.start sys;
  let t0 = System.now sys in
  W.run_until_idle sys ~apps:[ app ] ~timeout:(Time.sec 2);
  let t1 = System.now sys in
  let driver = System.gpu sys in
  let cmds =
    Temporal_sched.completed_items (Accel_driver.sched driver)
    |> List.filter_map (fun c ->
           match (c.Accel.started_at, c.Accel.finished_at) with
           | Some s, Some f ->
               Some (c.Accel.id, c.Accel.kind, Time.to_sec_f s, Time.to_sec_f f)
           | _ -> None)
  in
  let overlap =
    match cmds with
    | (_, _, s1, f1) :: (_, _, s2, f2) :: _ ->
        Float.max 0.0 (Float.min f1 f2 -. Float.max s1 s2)
    | _ -> 0.0
  in
  let rail = Psbox_hw.Accel.rail (Accel_driver.device driver) in
  let series =
    Report.series_of_timeline ~name:"GPU power"
      (Psbox_hw.Power_rail.timeline rail)
      ~from:t0 ~until:t1
  in
  System.shutdown sys;
  ({ commands = cmds; overlap_s = overlap }, [ series ])

(* (c) the same burst executed after an idle period vs right after another
   busy workload: the DVFS residue changes its power. *)
let run_c ?(seed = 7) () =
  let run ~warm =
    let sys = System.create ~seed ~cores:2 () in
    let app = System.new_app sys ~name:"probe" in
    System.start sys;
    if warm then begin
      (* a heavy workload that ends right before the probe starts *)
      let heater = System.new_app sys ~name:"heater" in
      ignore (W.spawn sys ~app:heater ~name:"heat" ~core:0 (busy_loop 80));
      W.run_until_idle sys ~apps:[ heater ] ~timeout:(Time.sec 3)
    end
    else System.run_for sys (Time.sec 1);
    let t0 = System.now sys in
    ignore
      (W.spawn sys ~app ~name:"probe" ~core:0
         (W.repeat 40 (fun _ -> [ W.Compute (Time.ms 8); W.Sleep (Time.ms 2) ])));
    W.run_until_idle sys ~apps:[ app ] ~timeout:(Time.sec 3);
    let t1 = System.now sys in
    let rail = Psbox_hw.Cpu.rail (System.cpu sys) in
    let tl = Psbox_hw.Power_rail.timeline rail in
    let mj = Timeline.integrate tl t0 t1 *. 1e3 in
    let peak =
      List.fold_left
        (fun acc (_, _, v) -> Float.max acc v)
        0.0
        (Timeline.map_intervals tl ~from:t0 ~until:t1 ~f:(fun a b v -> (a, b, v)))
    in
    let label = if warm then "exec after busy" else "exec after idle" in
    let series =
      { (Report.series_of_timeline ~name:label tl ~from:t0 ~until:t1) with
        Report.s_points =
          (Report.series_of_timeline ~name:label tl ~from:t0 ~until:t1)
            .Report.s_points
          |> List.map (fun (t, v) -> (t -. Time.to_sec_f t0, v)) }
    in
    System.shutdown sys;
    (mj, peak, series)
  in
  let idle_mj, idle_peak, s_idle = run ~warm:false in
  let busy_mj, busy_peak, s_busy = run ~warm:true in
  ( {
      after_idle_mj = idle_mj;
      after_busy_mj = busy_mj;
      after_idle_peak_w = idle_peak;
      after_busy_peak_w = busy_peak;
    },
    [ s_busy; s_idle ] )

let run ?(seed = 5) () =
  let a, sa = run_a ~seed ()
  and b, sb = run_b ~seed:(seed + 1) ()
  and c, sc = run_c ~seed:(seed + 2) () in
  let report =
    {
      Report.id = "fig3";
      title = "Examples of power entanglement (paper Fig. 3)";
      items =
        [
          Report.Text
            (Printf.sprintf
               "(a) spatial concurrency: 1 instance %s; 2 instances %s; \
                naive 2x extrapolation %s (off by %s)"
               (Common.fmt_w a.one_instance_w)
               (Common.fmt_w a.two_instances_w)
               (Common.fmt_w a.doubled_w)
               (Common.fmt_pct0_signed (Common.pct a.two_instances_w a.doubled_w)));
          Report.chart ~label:"(a) total CPU power" sa;
          Report.Text
            (Printf.sprintf
               "(b) blurry request boundary: commands 2 and 3 are the same \
                type, but command 2 overlaps command 1 for %s — their \
                power impacts entangle" (Common.fmt_ms (b.overlap_s *. 1e3)));
          Report.table
            ~headers:[ "cmd"; "kind"; "start"; "finish" ]
            (List.map
               (fun (id, kind, s, f) ->
                 [ string_of_int id; kind;
                   Common.fmt_ms ~dp:2 ~tight:true (s *. 1e3);
                   Common.fmt_ms ~dp:2 ~tight:true (f *. 1e3) ])
               b.commands);
          Report.chart ~label:"(b) GPU power" sb;
          Report.Text
            (Printf.sprintf
               "(c) lingering power state: the same burst costs %s after \
                idle vs %s right after a busy period (peaks %s vs %s)"
               (Common.fmt_mj c.after_idle_mj)
               (Common.fmt_mj c.after_busy_mj)
               (Common.fmt_ratio c.after_idle_peak_w)
               (Common.fmt_w c.after_busy_peak_w));
          Report.chart ~label:"(c) CPU power of the probe burst" sc;
        ];
    }
  in
  (report, (a, b, c))
