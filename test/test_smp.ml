(* Tests for the multicore scheduler: fairness, wakeups, spatial balloons,
   scheduling loans. *)
open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Task = Psbox_kernel.Task
module W = Psbox_workloads.Workload

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let spin sys app ~core =
  W.spawn sys ~app ~name:"spin" ~core (W.forever (fun () -> [ W.Compute (Time.ms 5) ]))

(* A spatial balloon without a listener. *)
let sandbox sys app =
  Smp.sandbox (System.smp sys) ~app:app.System.app_id ~on_start:ignore
    ~on_stop:ignore

(* Two CPU-bound apps on one core share it ~50/50. *)
let test_single_core_fairness () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  ignore
    (W.spawn sys ~app:a ~name:"a" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count ("w", 5.0) ])));
  ignore
    (W.spawn sys ~app:b ~name:"b" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count ("w", 5.0) ])));
  System.start sys;
  System.run_for sys (Time.sec 2);
  let wa = System.counter a "w" and wb = System.counter b "w" in
  check_bool "both progress" true (wa > 0.0 && wb > 0.0);
  check_bool
    (Printf.sprintf "fair within 5%% (a=%.0f b=%.0f)" wa wb)
    true
    (Float.abs (wa -. wb) /. (wa +. wb) < 0.05);
  System.shutdown sys

(* Task weights skew CPU shares proportionally (nice levels). *)
let test_weighted_fairness () =
  let sys = System.create ~cores:1 () in
  let heavy = System.new_app sys ~name:"heavy" in
  let light = System.new_app sys ~name:"light" in
  ignore
    (W.spawn sys ~app:heavy ~name:"h" ~core:0 ~weight:2048.0
       (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count ("w", 5.0) ])));
  ignore
    (W.spawn sys ~app:light ~name:"l" ~core:0 ~weight:1024.0
       (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count ("w", 5.0) ])));
  System.start sys;
  System.run_for sys (Time.sec 3);
  let wh = System.counter heavy "w" and wl = System.counter light "w" in
  let ratio = wh /. wl in
  check_bool (Printf.sprintf "2:1 share (got %.2f:1)" ratio) true
    (ratio > 1.8 && ratio < 2.2);
  System.shutdown sys

(* A sleeper that wakes regularly preempts a spinning hog quickly. *)
let test_wakeup_preemption () =
  let sys = System.create ~cores:1 () in
  let hog = System.new_app sys ~name:"hog" in
  ignore (spin sys hog ~core:0);
  let ticker = System.new_app sys ~name:"ticker" in
  ignore
    (W.spawn sys ~app:ticker ~name:"tick" ~core:0
       (W.forever (fun () ->
            [ W.Compute (Time.ms 1); W.Count ("n", 1.0); W.Sleep (Time.ms 9) ])));
  System.start sys;
  System.run_for sys (Time.sec 1);
  (* ideal: 100 iterations/s; accept more than half of that *)
  check_bool "ticker runs at rate" true (System.counter ticker "n" > 50.0);
  System.shutdown sys;
  let lats = Smp.wakeup_latencies_us (System.smp sys) in
  check_bool "latencies recorded" true (Array.length lats > 50)

let test_sleep_wakes_exactly () =
  let sys = System.create ~cores:1 () in
  let a = System.new_app sys ~name:"a" in
  let log = ref [] in
  ignore
    (W.spawn sys ~app:a ~name:"t" ~core:0
       (W.repeat 3 (fun _ ->
            [
              W.Effect (fun () -> log := System.now sys :: !log);
              W.Sleep (Time.ms 10);
            ])));
  System.start sys;
  System.run_for sys (Time.ms 100);
  check_int "three iterations" 3 (List.length !log);
  System.shutdown sys

let test_task_exit_reaps () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore (W.spawn sys ~app:a ~name:"t" ~core:0 (W.repeat 2 (fun _ -> [ W.Compute (Time.ms 1) ])));
  System.start sys;
  System.run_for sys (Time.ms 50);
  check_int "roster empty after exit" 0
    (List.length (Smp.app_tasks (System.smp sys) ~app:a.System.app_id));
  System.shutdown sys

(* Spatial balloon exclusivity: while the sandboxed app's balloon is live,
   no foreign task runs on any core. Verified via the schedule trace. *)
let test_balloon_exclusivity () =
  let sys = System.create ~cores:2 () in
  let star = System.new_app sys ~name:"star" in
  let other = System.new_app sys ~name:"other" in
  ignore (spin sys star ~core:0);
  ignore (spin sys star ~core:1);
  ignore (spin sys other ~core:0);
  ignore (spin sys other ~core:1);
  System.start sys;
  System.run_for sys (Time.ms 100);
  let b = sandbox sys star in
  System.run_for sys (Time.sec 1);
  Smp.unsandbox (System.smp sys) b;
  Smp.stop (System.smp sys);
  let spans = Smp.sched_spans (System.smp sys) in
  let balloons = Smp.balloon_intervals b in
  check_bool "balloons formed" true (List.length balloons > 0);
  (* no foreign span may intersect a balloon interval *)
  let foreign_overlap =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun s ->
            let _, app = s.Trace.tag in
            app = other.System.app_id
            && min s.Trace.stop b1 > max s.Trace.start b0)
          spans)
      balloons
  in
  check_bool "no foreign execution inside balloons" false foreign_overlap;
  System.shutdown sys

(* Fairness: sandboxing one of two equal apps leaves the other's share
   intact. *)
let test_balloon_confines_loss () =
  let sys = System.create ~cores:2 () in
  let star = System.new_app sys ~name:"star" in
  let other = System.new_app sys ~name:"other" in
  let mk app =
    List.iter
      (fun core ->
        ignore
          (W.spawn sys ~app ~name:"w" ~core
             (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count ("w", 1.0) ]))))
      [ 0; 1 ]
  in
  mk star;
  mk other;
  System.start sys;
  System.run_for sys (Time.ms 500);
  let o0 = System.counter other "w" in
  System.run_for sys (Time.sec 2);
  let before = (System.counter other "w" -. o0) /. 2.0 in
  let b = sandbox sys star in
  System.run_for sys (Time.ms 500);
  let o1 = System.counter other "w" in
  System.run_for sys (Time.sec 2);
  let after = (System.counter other "w" -. o1) /. 2.0 in
  check_bool
    (Printf.sprintf "other's share preserved (%.1f -> %.1f)" before after)
    true
    (Float.abs (after -. before) /. before < 0.06);
  Smp.unsandbox (System.smp sys) b;
  System.shutdown sys

(* Loans: issued loans are repaid by redistribution, and the balloon
   mechanism keeps issuing them under contention. *)
let test_loans_issued_under_contention () =
  let sys = System.create ~cores:2 () in
  let star = System.new_app sys ~name:"star" in
  let other = System.new_app sys ~name:"other" in
  ignore (spin sys star ~core:0);
  ignore (spin sys other ~core:0);
  ignore (spin sys other ~core:1);
  System.start sys;
  System.run_for sys (Time.ms 100);
  let b = sandbox sys star in
  System.run_for sys (Time.sec 1);
  (* star has one thread on core 0; core 1 must be ballooned away from
     other, which requires loans *)
  check_bool "loans were issued" true (Smp.total_loan_issued b > 0.0);
  Smp.unsandbox (System.smp sys) b;
  System.shutdown sys

(* The balloon closes promptly when the sandboxed app blocks, so the
   machine is not held idle. *)
let test_balloon_closes_on_idle_app () =
  let sys = System.create ~cores:2 () in
  let star = System.new_app sys ~name:"star" in
  let other = System.new_app sys ~name:"other" in
  ignore
    (W.spawn sys ~app:star ~name:"naps" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 2); W.Sleep (Time.ms 20) ])));
  ignore
    (W.spawn sys ~app:other ~name:"spin" ~core:0
       (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count ("w", 1.0) ])));
  System.start sys;
  let b = sandbox sys star in
  System.run_for sys (Time.sec 1);
  (* star uses ~9% of one core; other must keep nearly all the rest *)
  check_bool "other barely affected" true (System.counter other "w" > 150.0);
  check_bool "balloon closed while star sleeps" true
    (Smp.balloon_open_since b = None);
  (* exclusive time must be close to star's actual demand, not the
     whole second *)
  let excl =
    List.fold_left
      (fun acc (t0, t1) -> acc + (t1 - t0))
      0 (Smp.balloon_intervals b)
  in
  check_bool
    (Printf.sprintf "balloon time bounded (%.0f ms)" (Time.to_ms_f excl))
    true
    (excl < Time.ms 250);
  Smp.unsandbox (System.smp sys) b;
  System.shutdown sys

let test_unsandbox_restores_normal_scheduling () =
  let sys = System.create ~cores:2 () in
  let star = System.new_app sys ~name:"star" in
  let other = System.new_app sys ~name:"other" in
  let mk app key =
    ignore
      (W.spawn sys ~app ~name:key ~core:0
         (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count (key, 1.0) ])))
  in
  mk star "s";
  mk other "o";
  System.start sys;
  let b = sandbox sys star in
  System.run_for sys (Time.ms 500);
  Smp.unsandbox (System.smp sys) b;
  (* CFS lets the waiter repay the balloon-era imbalance first *)
  System.run_for sys (Time.ms 300);
  let s0 = System.counter star "s" and o0 = System.counter other "o" in
  System.run_for sys (Time.sec 1);
  let ds = System.counter star "s" -. s0 and d_o = System.counter other "o" -. o0 in
  check_bool "both run after unsandbox" true (ds > 0.0 && d_o > 0.0);
  check_bool "fair after unsandbox" true (Float.abs (ds -. d_o) /. (ds +. d_o) < 0.1);
  System.shutdown sys

let test_double_sandbox_rejected () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  ignore (spin sys a ~core:0);
  System.start sys;
  let _b = sandbox sys a in
  Alcotest.check_raises "double sandbox"
    (Invalid_argument "Smp.sandbox: app already sandboxed") (fun () ->
      ignore (sandbox sys a));
  System.shutdown sys

(* Two psboxes on the CPU: balloons are mutually exclusive in time. *)
let test_two_balloons_mutually_exclusive () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  ignore (spin sys a ~core:0);
  ignore (spin sys b ~core:1);
  System.start sys;
  let ba = sandbox sys a in
  let bb = sandbox sys b in
  System.run_for sys (Time.sec 1);
  let ia = Smp.balloon_intervals ba and ib = Smp.balloon_intervals bb in
  check_bool "both apps got balloons" true (ia <> [] && ib <> []);
  let overlap =
    List.exists
      (fun (a0, a1) ->
        List.exists (fun (b0, b1) -> min a1 b1 > max a0 b0) ib)
      ia
  in
  check_bool "balloons never overlap" false overlap;
  Smp.unsandbox (System.smp sys) ba;
  Smp.unsandbox (System.smp sys) bb;
  System.shutdown sys

(* Idle-pull balancing: two CPU-bound tasks spawned on the same core must
   spread across both cores and get ~2x single-core throughput. *)
let test_load_balancing_spreads () =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  let mk key =
    ignore
      (W.spawn sys ~app:a ~name:key ~core:0
         (W.forever (fun () -> [ W.Compute (Time.ms 5); W.Count (key, 5.0) ])))
  in
  mk "t1";
  mk "t2";
  System.start sys;
  System.run_for sys (Time.sec 1);
  let total = System.counter a "t1" +. System.counter a "t2" in
  check_bool
    (Printf.sprintf "both cores utilized (%.0f ms of work in 1 s)" total)
    true (total > 1_800.0);
  (* but balanced counts are not disturbed: a 1v1 split must not steal *)
  let cores_used =
    List.sort_uniq compare
      (List.map (fun t -> t.Task.core) (Smp.app_tasks (System.smp sys) ~app:a.System.app_id))
  in
  check_int "tasks ended up on distinct cores" 2 (List.length cores_used);
  System.shutdown sys

let suite =
  [
    ("single-core fairness", `Quick, test_single_core_fairness);
    ("load balancing spreads", `Quick, test_load_balancing_spreads);
    ("weighted fairness", `Quick, test_weighted_fairness);
    ("wakeup preemption", `Quick, test_wakeup_preemption);
    ("sleep wakes exactly", `Quick, test_sleep_wakes_exactly);
    ("task exit reaps roster", `Quick, test_task_exit_reaps);
    ("balloon exclusivity", `Quick, test_balloon_exclusivity);
    ("balloon confines loss", `Quick, test_balloon_confines_loss);
    ("loans issued under contention", `Quick, test_loans_issued_under_contention);
    ("balloon closes when app sleeps", `Quick, test_balloon_closes_on_idle_app);
    ("unsandbox restores scheduling", `Quick, test_unsandbox_restores_normal_scheduling);
    ("double sandbox rejected", `Quick, test_double_sandbox_rejected);
    ("two balloons mutually exclusive", `Quick, test_two_balloons_mutually_exclusive);
  ]
