(* Tests for the accelerator driver: fair command scheduling and temporal
   balloons. *)
open Psbox_engine
module Accel = Psbox_hw.Accel
module Accel_driver = Psbox_kernel.Accel_driver
module Ts = Psbox_kernel.Temporal_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?(units = 2) ?(window = 2) () =
  let sim = Sim.create () in
  let dev =
    Accel.create sim ~name:"acc" ~units ~governor:Psbox_hw.Dvfs.Performance
      ~idle_w:0.1 ()
  in
  let d = Accel_driver.create sim dev ~window () in
  (sim, dev, d)

let submit d ~app ~work_s =
  let cmd = Accel.command ~app ~kind:"k" ~work_s () in
  Accel_driver.submit d ~app cmd ~on_complete:(fun _ -> ());
  cmd

(* A continuous submitter that keeps an app's queue non-empty. *)
let feeder sim d ~app ~work_s =
  let rec loop () =
    let cmd = Accel.command ~app ~kind:"k" ~work_s () in
    Accel_driver.submit d ~app cmd ~on_complete:(fun _ -> loop ())
  in
  ignore sim;
  loop ();
  loop ()

let test_dispatch_and_complete () =
  let sim, _, d = mk () in
  let done_ = ref false in
  let cmd = Accel.command ~app:1 ~kind:"k" ~work_s:0.005 () in
  Accel_driver.submit d ~app:1 cmd ~on_complete:(fun _ -> done_ := true);
  Sim.run_until sim (Time.ms 20);
  check_bool "completed" true !done_;
  check_int "counted" 1 (Accel_driver.completed d ~app:1);
  check_int "log" 1 (List.length (Ts.completed_items (Accel_driver.sched d)))

let test_fair_sharing () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.sec 2);
  let c1 = Accel_driver.completed d ~app:1 in
  let c2 = Accel_driver.completed d ~app:2 in
  check_bool
    (Printf.sprintf "fair split (%d vs %d)" c1 c2)
    true
    (abs (c1 - c2) * 10 < c1 + c2);
  (* vruntimes track each other *)
  let s = Accel_driver.sched d in
  let v1 = Ts.credit s ~app:1 and v2 = Ts.credit s ~app:2 in
  check_bool "vruntimes close" true (Float.abs (v1 -. v2) < 0.1)

(* Temporal balloon: while the balloon serves the sandboxed app, no foreign
   command is in flight on the device. *)
let test_balloon_exclusivity () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.ms 100);
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Sim.run_until sim (Time.sec 2);
  let intervals = Ts.balloon_intervals (Accel_driver.sched d) in
  check_bool "balloons formed" true (List.length intervals > 2);
  let cmds = Ts.completed_items (Accel_driver.sched d) in
  let foreign_inside =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun c ->
            c.Accel.app <> 1
            &&
            match (c.Accel.started_at, c.Accel.finished_at) with
            | Some s, Some f -> min f b1 > max s b0
            | _ -> false)
          cmds)
      intervals
  in
  check_bool "no foreign command inside a balloon" false foreign_inside;
  (* and the sandboxed app's commands execute only inside balloons *)
  let own_outside =
    List.exists
      (fun c ->
        c.Accel.app = 1
        && c.Accel.started_at <> None
        && Option.get c.Accel.started_at > Time.ms 120
        && not
             (List.exists
                (fun (b0, b1) ->
                  Option.get c.Accel.started_at >= b0
                  && Option.get c.Accel.finished_at <= b1)
                intervals))
      cmds
  in
  check_bool "own commands only inside balloons" false own_outside

let test_balloon_billing_disadvantages () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Sim.run_until sim (Time.sec 2);
  (* app 1 is billed the whole device during its serve windows, so it must
     complete fewer commands than the unsandboxed sibling *)
  let c1 = Accel_driver.completed d ~app:1 in
  let c2 = Accel_driver.completed d ~app:2 in
  check_bool (Printf.sprintf "sandboxed does less (%d vs %d)" c1 c2) true (c1 < c2)

let test_unsandbox_releases () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Sim.run_until sim (Time.ms 500);
  Ts.unsandbox (Accel_driver.sched d);
  Sim.run_until sim (Time.ms 600);
  check_bool "balloon closed" false (Ts.balloon_open (Accel_driver.sched d));
  check_bool "sandbox cleared" true (Ts.sandboxed (Accel_driver.sched d) = None);
  let n = List.length (Ts.balloon_intervals (Accel_driver.sched d)) in
  Sim.run_until sim (Time.sec 1);
  check_int "no new balloons after unsandbox" n
    (List.length (Ts.balloon_intervals (Accel_driver.sched d)))

let test_sandbox_conflict_rejected () =
  let _, _, d = mk () in
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Alcotest.check_raises "conflict"
    (Invalid_argument "Temporal_sched.sandbox: another app is already sandboxed")
    (fun () -> Ts.sandbox (Accel_driver.sched d) ~app:2)

let test_drain_preserves_all_commands () =
  let sim, _, d = mk () in
  (* fixed workloads: every submitted command must eventually complete even
     across balloon phase changes *)
  let total = ref 0 in
  for i = 1 to 30 do
    let app = 1 + (i mod 2) in
    let cmd = Accel.command ~app ~kind:"k" ~work_s:0.003 () in
    Accel_driver.submit d ~app cmd ~on_complete:(fun _ -> incr total)
  done;
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Sim.run_until sim (Time.ms 50);
  Ts.unsandbox (Accel_driver.sched d);
  Sim.run_until sim (Time.sec 2);
  check_int "all commands completed" 30 !total

let test_dispatch_latency_rises_for_sandboxed () =
  let sim, _, d = mk () in
  feeder sim d ~app:1 ~work_s:0.004;
  feeder sim d ~app:2 ~work_s:0.004;
  Sim.run_until sim (Time.ms 500);
  let before =
    Ts.dispatch_latencies_us (Accel_driver.sched d)
    |> List.filter (fun (a, _) -> a = 1)
    |> List.map snd
  in
  let mark = List.length (Ts.dispatch_latencies_us (Accel_driver.sched d)) in
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Sim.run_until sim (Time.ms 1000);
  let after =
    Ts.dispatch_latencies_us (Accel_driver.sched d)
    |> List.filteri (fun i _ -> i >= mark)
    |> List.filter (fun (a, _) -> a = 1)
    |> List.map snd
  in
  let mean l = Stats.mean (Array.of_list l) in
  check_bool "drain phases add dispatch latency" true (mean after > mean before)

(* SGX-style Lock_requests: a foreign submission stalls in syscall context
   while a balloon holds the queue; Adreno-style per-process queues accept
   it immediately. *)
let test_lock_requests_blocks_submission () =
  let run buffering =
    let sim = Sim.create () in
    let dev =
      Accel.create sim ~name:"acc" ~units:2 ~governor:Psbox_hw.Dvfs.Performance
        ~idle_w:0.1 ()
    in
    let d = Accel_driver.create sim dev ~buffering ~window:2 () in
    feeder sim d ~app:1 ~work_s:0.004;
    Ts.sandbox (Accel_driver.sched d) ~app:1;
    Sim.run_until sim (Time.ms 50);
    (* a balloon should now be open more or less permanently (app 1 is the
       only client); inject a foreign submission *)
    check_bool "balloon open" true (Ts.balloon_open (Accel_driver.sched d));
    let accepted = ref false in
    Accel_driver.submit d ~on_accepted:(fun () -> accepted := true) ~app:2
      (Accel.command ~app:2 ~kind:"k" ~work_s:0.001 ())
      ~on_complete:(fun _ -> ());
    let immediately = !accepted in
    Sim.run_until sim (Time.ms 300);
    (immediately, !accepted)
  in
  let sgx_now, sgx_later = run Accel_driver.Lock_requests in
  check_bool "sgx: stalled while balloon open" false sgx_now;
  check_bool "sgx: accepted after flush-others" true sgx_later;
  let adreno_now, _ = run Accel_driver.Per_process_queues in
  check_bool "adreno: accepted immediately" true adreno_now

let test_submission_blocks_predicate () =
  let sim, _, d = mk () in
  check_bool "no balloon: never blocks" false (Accel_driver.submission_blocks d ~app:2);
  feeder sim d ~app:1 ~work_s:0.004;
  Ts.sandbox (Accel_driver.sched d) ~app:1;
  Sim.run_until sim (Time.ms 50);
  (* default buffering is Per_process_queues: still never blocks *)
  check_bool "per-process queues never block" false
    (Accel_driver.submission_blocks d ~app:2)

(* A rate-gated co-runner with less credit than the sandboxed app must not
   make the balloon yield before its gate reopens: the scheduler would
   reopen the balloon for the sandboxed app at once and spin at one
   instant. Everything completes and the balloon stays exclusive. *)
let test_gated_corunner_no_livelock () =
  let sim, _, d = mk () in
  let s = Accel_driver.sched d in
  let done_ = ref 0 in
  let submit app work_s =
    Accel_driver.submit d ~app (Accel.command ~app ~kind:"k" ~work_s ())
      ~on_complete:(fun _ -> incr done_)
  in
  Ts.set_rate s ~app:3 (Some 0.05);
  submit 3 0.002;
  submit 3 0.002;
  ignore
    (Sim.schedule_at sim (Time.ms 1) (fun () ->
         Ts.sandbox s ~app:1;
         for _ = 1 to 4 do submit 1 0.003 done));
  Sim.run_until sim (Time.ms 100);
  check_int "all commands completed" 6 !done_;
  check_bool "balloons formed" true (Ts.balloon_intervals s <> []);
  let foreign_inside =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun c ->
            c.Accel.app <> 1
            &&
            match (c.Accel.started_at, c.Accel.finished_at) with
            | Some st, Some f -> min f b1 > max st b0
            | _ -> false)
          (Ts.completed_items s))
      (Ts.balloon_intervals s)
  in
  check_bool "no foreign command inside a balloon" false foreign_inside

let suite =
  [
    ("dispatch and complete", `Quick, test_dispatch_and_complete);
    ("lock_requests blocks submission", `Quick, test_lock_requests_blocks_submission);
    ("submission_blocks predicate", `Quick, test_submission_blocks_predicate);
    ("fair sharing", `Quick, test_fair_sharing);
    ("temporal balloon exclusivity", `Quick, test_balloon_exclusivity);
    ("balloon billing disadvantages", `Quick, test_balloon_billing_disadvantages);
    ("unsandbox releases", `Quick, test_unsandbox_releases);
    ("sandbox conflict rejected", `Quick, test_sandbox_conflict_rejected);
    ("drain preserves all commands", `Quick, test_drain_preserves_all_commands);
    ("dispatch latency rises for sandboxed", `Quick, test_dispatch_latency_rises_for_sandboxed);
    ( "gated co-runner does not livelock a balloon",
      `Quick,
      test_gated_corunner_no_livelock );
  ]
