open Psbox_engine
module System = Psbox_kernel.System
module Temporal_sched = Psbox_kernel.Temporal_sched
module Psbox = Psbox_core.Psbox
module Accel = Psbox_hw.Accel
module Accel_driver = Psbox_kernel.Accel_driver
module W = Psbox_workloads.Workload
module Cpu_apps = Psbox_workloads.Cpu_apps
module Gpu_apps = Psbox_workloads.Gpu_apps

type confinement = {
  ab_sibling_delta_on : float;
  ab_sibling_delta_off : float;
}

type vstate = {
  ab_gap_on_pct : float;
  ab_gap_off_pct : float;
}

type window = (int * float) list

(* ---- cost confinement on the CPU ---------------------------------- *)

(* Three equal instances; sandbox one; how much does an unsandboxed
   sibling's throughput move? *)
let cpu_sibling_delta ~seed ~confine_cost =
  let sys = System.create ~seed ~cores:2 ~confine_cost () in
  let apps =
    List.init 3 (fun i ->
        let app = System.new_app sys ~name:(Printf.sprintf "calib%d" i) in
        ignore (Cpu_apps.calib3d sys ~iterations:1_000_000 app);
        app)
  in
  System.start sys;
  System.run_for sys (Time.ms 500);
  let sibling = List.hd apps and star = List.nth apps 2 in
  let rate app span =
    let c0 = System.counter app "kb" in
    System.run_for sys span;
    (System.counter app "kb" -. c0) /. Time.to_sec_f span
  in
  let before = rate sibling (Time.sec 2) in
  let box = Psbox.create sys ~app:star.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  System.run_for sys (Time.ms 500);
  let after = rate sibling (Time.sec 2) in
  Psbox.leave box;
  System.shutdown sys;
  Common.pct before after

let cpu_confinement ?(seed = 31) () =
  {
    ab_sibling_delta_on = cpu_sibling_delta ~seed ~confine_cost:true;
    ab_sibling_delta_off = cpu_sibling_delta ~seed ~confine_cost:false;
  }

(* ---- cost confinement on the GPU ---------------------------------- *)

let gpu_sibling_delta ~seed ~confine_cost =
  let sys = System.create ~seed ~cores:2 ~confine_cost ~gpu:true () in
  let tri = System.new_app sys ~name:"triangle" in
  ignore (Gpu_apps.triangle sys ~batches:1_000_000 tri);
  let star = System.new_app sys ~name:"cube" in
  ignore (Gpu_apps.cube sys ~frames:1_000_000 ~cmds:8 ~units:2 star);
  System.start sys;
  System.run_for sys (Time.ms 500);
  let rate span =
    let c0 = System.counter tri "cmds" in
    System.run_for sys span;
    (System.counter tri "cmds" -. c0) /. Time.to_sec_f span
  in
  let before = rate (Time.sec 2) in
  let box = Psbox.create sys ~app:star.System.app_id ~hw:[ Psbox.Gpu ] in
  Psbox.enter box;
  System.run_for sys (Time.ms 500);
  let after = rate (Time.sec 2) in
  Psbox.leave box;
  System.shutdown sys;
  Common.pct before after

let gpu_confinement ?(seed = 37) () =
  {
    ab_sibling_delta_on = gpu_sibling_delta ~seed ~confine_cost:true;
    ab_sibling_delta_off = gpu_sibling_delta ~seed ~confine_cost:false;
  }

(* ---- power-state virtualization ------------------------------------ *)

(* An app observes a short burst of its own right after entering its psbox,
   either from a cold machine or right after a heater maxed the clock. With
   virtualization the two observations agree; without it, the heater's
   frequency lingers into the hot-entry one. *)
let observed_burst ~seed ~virtualize ~hot =
  let sys = System.create ~seed ~cores:2 () in
  let app = System.new_app sys ~name:"probe" in
  System.start sys;
  if hot then begin
    let heater = System.new_app sys ~name:"heater" in
    ignore
      (W.spawn sys ~app:heater ~name:"heat" ~core:0
         (W.repeat 60 (fun _ -> [ W.Compute (Time.ms 10) ])));
    ignore
      (W.spawn sys ~app:heater ~name:"heat2" ~core:1
         (W.repeat 60 (fun _ -> [ W.Compute (Time.ms 10) ])));
    W.run_until_idle sys ~apps:[ heater ] ~timeout:(Time.sec 3)
  end
  else System.run_for sys (Time.ms 600);
  ignore
    (W.spawn sys ~app ~name:"burst" ~core:0
       (W.repeat 10 (fun _ -> [ W.Compute (Time.ms 8); W.Sleep (Time.ms 2) ])));
  let box =
    Psbox.create ~virtualize_power_state:virtualize sys ~app:app.System.app_id
      ~hw:[ Psbox.Cpu ]
  in
  Psbox.enter box;
  W.run_until_idle sys ~apps:[ app ] ~timeout:(Time.sec 2);
  let mj = Psbox.read_mj box in
  Psbox.leave box;
  System.shutdown sys;
  mj

let state_virtualization ?(seed = 41) () =
  let gap ~virtualize =
    let cold = observed_burst ~seed ~virtualize ~hot:false in
    let hot = observed_burst ~seed ~virtualize ~hot:true in
    Float.abs (Common.pct cold hot)
  in
  { ab_gap_on_pct = gap ~virtualize:true; ab_gap_off_pct = gap ~virtualize:false }

(* ---- dispatch window vs request-boundary blur ---------------------- *)

let overlap_at_window ~seed w =
  ignore seed;
  let sim = Sim.create () in
  let dev =
    Accel.create sim ~name:"gpu" ~units:4 ~governor:Psbox_hw.Dvfs.Performance
      ~idle_w:0.08 ()
  in
  let d = Accel_driver.create sim dev ~window:w () in
  let submit work =
    Accel_driver.submit d ~app:1
      (Accel.command ~app:1 ~kind:"k" ~work_s:work ~units:2 ())
      ~on_complete:(fun _ -> ())
  in
  submit 0.012;
  submit 0.006;
  Sim.run_until sim (Time.ms 100);
  match Temporal_sched.completed_items (Accel_driver.sched d) with
  | c1 :: c2 :: _ -> (
      match (c1.Accel.started_at, c1.Accel.finished_at,
             c2.Accel.started_at, c2.Accel.finished_at) with
      | Some s1, Some f1, Some s2, Some f2 ->
          Time.to_ms_f (max 0 (min f1 f2 - max s1 s2))
      | _ -> 0.0)
  | _ -> 0.0

let dispatch_window ?(seed = 43) () =
  List.map (fun w -> (w, overlap_at_window ~seed w)) [ 1; 2; 4 ]

let run ?(seed = 31) () =
  let cpu = cpu_confinement ~seed () in
  let gpu = gpu_confinement ~seed:(seed + 6) () in
  let vs = state_virtualization ~seed:(seed + 10) () in
  let win = dispatch_window ~seed:(seed + 12) () in
  let report =
    {
      Report.id = "ablation";
      title = "Ablations of the psbox design choices";
      items =
        [
          Report.Text
            "1. Cost confinement (loans + balloon billing): sibling \
             throughput change when another app enters its psbox.";
          Report.table
            ~headers:[ "hw"; "confinement ON"; "confinement OFF (ablated)" ]
            [
              [ "CPU (calib3d x3)"; Report.fmt_pct cpu.ab_sibling_delta_on;
                Report.fmt_pct cpu.ab_sibling_delta_off ];
              [ "GPU (triangle bystander)"; Report.fmt_pct gpu.ab_sibling_delta_on;
                Report.fmt_pct gpu.ab_sibling_delta_off ];
            ];
          Report.Text
            "2. Power-state virtualization: gap between cold-entry and \
             hot-entry psbox observations of the same burst.";
          Report.table
            ~headers:[ "virtualization"; "observation gap" ]
            [
              [ "ON"; Common.fmt_pct1 vs.ab_gap_on_pct ];
              [ "OFF (ablated)"; Common.fmt_pct1 vs.ab_gap_off_pct ];
            ];
          Report.Text
            "3. Dispatch window: command overlap (the Fig 3b blur) needs an \
             asynchronous queue deeper than 1.";
          Report.table
            ~headers:[ "window"; "overlap of cmd1/cmd2" ]
            (List.map
               (fun (w, ms) -> [ string_of_int w; Common.fmt_ms ms ])
               win);
        ];
    }
  in
  (report, (cpu, gpu, vs, win))
