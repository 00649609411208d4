(* Tests for the psbox principal itself: API semantics, insulation, masking,
   power-state virtualization. *)
open Psbox_engine
module System = Psbox_kernel.System
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Sample = Psbox_meter.Sample

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let spin sys app ~core =
  W.spawn sys ~app ~name:"spin" ~core (W.forever (fun () -> [ W.Compute (Time.ms 5) ]))

let test_api_lifecycle () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  check_bool "outside initially" false (Psbox.inside box);
  Alcotest.check_raises "read outside raises" Psbox.Not_in_psbox (fun () ->
      ignore (Psbox.read_mj box));
  Alcotest.check_raises "sample outside raises" Psbox.Not_in_psbox (fun () ->
      ignore (Psbox.sample box));
  Psbox.enter box;
  Psbox.enter box (* idempotent *);
  check_bool "inside" true (Psbox.inside box);
  System.run_for sys (Time.ms 100);
  check_bool "energy accumulates" true (Psbox.read_mj box > 0.0);
  Psbox.leave box;
  Psbox.leave box (* idempotent *);
  check_bool "outside" false (Psbox.inside box);
  Psbox.destroy box;
  System.shutdown sys

let test_create_validation () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  Alcotest.check_raises "empty hw"
    (Invalid_argument "Psbox.create: empty hardware set") (fun () ->
      ignore (Psbox.create sys ~app:a.System.app_id ~hw:[]));
  Alcotest.check_raises "no gpu" (Invalid_argument "Psbox.create: no GPU")
    (fun () -> ignore (Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ]));
  let b1 = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Alcotest.check_raises "duplicate target"
    (Invalid_argument "Psbox.create: app already has a psbox on this target")
    (fun () -> ignore (Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ]));
  Psbox.destroy b1;
  (* after destroy, creation works again *)
  let b2 = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.destroy b2;
  System.shutdown sys

(* The one-psbox-per-target check must not keep machines alive: one whose
   psbox was never destroyed is collected once it goes out of scope. *)
let test_undestroyed_psbox_machine_collected () =
  let finalised = ref false in
  let[@inline never] boot () =
    let sys = System.create ~cores:2 () in
    let a = System.new_app sys ~name:"a" in
    ignore (spin sys a ~core:0);
    System.start sys;
    let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
    Psbox.enter box;
    System.run_for sys (Time.ms 10);
    Alcotest.check_raises "duplicate on a live machine"
      (Invalid_argument "Psbox.create: app already has a psbox on this target")
      (fun () -> ignore (Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ]));
    Gc.finalise_last (fun () -> finalised := true) sys
  in
  boot ();
  Gc.full_major ();
  Gc.full_major ();
  check_bool "machine finalised" true !finalised

(* Insulation: the psbox view of an app must be (nearly) unchanged by what
   co-runners do — the headline property. *)
let test_insulation () =
  let run ~co =
    let sys = System.create ~seed:21 ~cores:2 () in
    let a = System.new_app sys ~name:"a" in
    ignore
      (W.spawn sys ~app:a ~name:"t" ~core:0
         (W.repeat 50 (fun _ -> [ W.Compute (Time.ms 5); W.Sleep (Time.ms 3) ])));
    if co then begin
      let b = System.new_app sys ~name:"b" in
      ignore (spin sys b ~core:0);
      ignore (spin sys b ~core:1)
    end;
    System.start sys;
    let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
    Psbox.enter box;
    W.run_until_idle sys ~apps:[ a ] ~timeout:(Time.sec 5);
    let mj = Psbox.read_mj box in
    Psbox.leave box;
    System.shutdown sys;
    mj
  in
  let alone = run ~co:false and co_run = run ~co:true in
  check_bool
    (Printf.sprintf "observation insulated (%.0f vs %.0f mJ)" alone co_run)
    true
    (Float.abs (co_run -. alone) /. alone < 0.12)

(* Outside the app's balloons the virtual meter reports idle power only,
   whatever the co-runners burn. *)
let test_masking () =
  let sys = System.create ~cores:2 () in
  let quiet = System.new_app sys ~name:"quiet" in
  (* the sandboxed app sleeps: it should observe pure idle power *)
  ignore
    (W.spawn sys ~app:quiet ~name:"z" ~core:0
       (W.forever (fun () -> [ W.Sleep (Time.ms 50) ])));
  let burner = System.new_app sys ~name:"burner" in
  ignore (spin sys burner ~core:0);
  ignore (spin sys burner ~core:1);
  System.start sys;
  let box = Psbox.create sys ~app:quiet.System.app_id ~hw:[ Psbox.Cpu ] in
  System.run_for sys (Time.ms 100);
  Psbox.enter box;
  System.run_for sys (Time.sec 1);
  let samples = Psbox.sample ~period:(Time.ms 1) box in
  let idle = Psbox_hw.Power_rail.idle_w (Psbox_hw.Cpu.rail (System.cpu sys)) in
  let above_idle =
    Array.exists (fun s -> s.Sample.watts > idle +. 1e-6) samples
  in
  check_bool "burner invisible: only idle power" false above_idle;
  Psbox.leave box;
  System.shutdown sys

let test_sample_timestamps () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  System.run_for sys (Time.ms 10);
  let s = Psbox.sample box in
  (* default 10 us period over 10 ms -> 1001 samples, timestamped *)
  check_int "sample count" 1001 (Array.length s);
  check_bool "monotonic timestamps" true
    (Array.for_all
       (fun i -> s.(i).Sample.time < s.(i + 1).Sample.time)
       (Array.init (Array.length s - 1) (fun i -> i)));
  Psbox.leave box;
  System.shutdown sys

let test_multi_target () =
  let sys = System.am57 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever
          (fun () ->
            [
              W.Compute (Time.ms 2);
              W.Gpu_batch [ W.spec ~kind:"k" ~work_s:0.002 () ];
            ])));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu; Psbox.Gpu ] in
  Psbox.enter box;
  System.run_for sys (Time.ms 500);
  Alcotest.(check (list bool))
    "both targets bound" [ true; true ]
    (List.map (fun t -> List.mem t (Psbox.targets box)) [ Psbox.Cpu; Psbox.Gpu ]);
  let total = Psbox.read_mj box in
  let cpu_only = Sample.energy_mj (Psbox.sample_target box Psbox.Cpu) in
  let gpu_only = Sample.energy_mj (Psbox.sample_target box Psbox.Gpu) in
  check_bool "total covers both components" true
    (Float.abs (total -. (cpu_only +. gpu_only)) /. total < 0.05);
  Psbox.leave box;
  System.shutdown sys

(* Power-state virtualization: a psbox observes the same initial hardware
   power state at every entry, regardless of what others did in between. *)
let test_no_lingering_state_across_entries () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 2); W.Sleep (Time.ms 30) ])));
  let heater = System.new_app sys ~name:"heater" in
  ignore (spin sys heater ~core:0);
  ignore (spin sys heater ~core:1);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  (* run hot, then enter: the psbox must start from its own (pristine)
     frequency, not the heater's maxed one *)
  System.run_for sys (Time.sec 1);
  Alcotest.(check int) "heater drove the clock up" 1500
    (Psbox_hw.Cpu.freq_mhz (System.cpu sys));
  Psbox.enter box;
  System.run_for sys (Time.ms 6);
  (* during a's balloon the restored state is the pristine lowest OPP *)
  let samples = Psbox.sample ~period:(Time.ms 1) box in
  let peak = Array.fold_left (fun m s -> Float.max m s.Sample.watts) 0.0 samples in
  (* at 500 MHz one busy core draws ~0.67 W; at 1.5 GHz it would be 2.5 W *)
  check_bool
    (Printf.sprintf "first balloon at pristine clock (peak %.2f W)" peak)
    true (peak < 1.0);
  Psbox.leave box;
  System.shutdown sys

let test_exclusive_intervals_accounting () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  System.run_for sys (Time.sec 1);
  let excl = Psbox.exclusive_us box in
  let intervals = Psbox.exclusive_intervals box in
  let sum =
    List.fold_left (fun acc (t0, t1) -> acc +. Time.to_us_f (t1 - t0)) 0.0 intervals
  in
  check_bool "exclusive_us consistent with intervals" true
    (Float.abs (excl -. sum) < 1.0);
  check_bool "app ran most of the second" true (excl > 0.9e6);
  Psbox.leave box;
  System.shutdown sys

(* On one core, entering while the app runs opens its first balloon inside
   [Psbox.enter]. That balloon's start must still reach the power-state
   virtualization, which freezes the CPU governor for the balloon. *)
let test_one_core_first_balloon_virtualized () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  ignore
    (W.spawn sys ~app:a ~name:"a" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Sleep (Time.ms 2) ])));
  System.start sys;
  System.run_for sys (Time.ms 1);
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  Psbox.enter box;
  check_bool "governor frozen" true
    (Psbox_hw.Dvfs.frozen (Psbox_hw.Cpu.dvfs (System.cpu sys)));
  Psbox.leave box;
  Psbox.destroy box;
  System.shutdown sys

let suite =
  [
    ("api lifecycle", `Quick, test_api_lifecycle);
    ("create validation", `Quick, test_create_validation);
    ( "undestroyed psbox keeps no machine alive",
      `Quick,
      test_undestroyed_psbox_machine_collected );
    ("insulation from co-runners", `Quick, test_insulation);
    ("masking outside balloons", `Quick, test_masking);
    ("sample timestamps at 10us", `Quick, test_sample_timestamps);
    ("multiple hardware targets", `Quick, test_multi_target);
    ("no lingering state across entries", `Quick, test_no_lingering_state_across_entries);
    ("exclusive interval accounting", `Quick, test_exclusive_intervals_accounting);
    ( "one-core first balloon reaches the listener",
      `Quick,
      test_one_core_first_balloon_virtualized );
  ]
