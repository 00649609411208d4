(* Randomized whole-kernel stress properties: arbitrary workload scripts,
   arbitrary psbox enter/leave points — the invariants must hold for all of
   them. *)
open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Psbox = Psbox_core.Psbox
module W = Psbox_workloads.Workload
module Accel = Psbox_hw.Accel
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Ts = Psbox_kernel.Temporal_sched
module Wifi = Psbox_hw.Wifi

(* A random op stream for one task. *)
let gen_ops ~gpu =
  QCheck.Gen.(
    list_size (1 -- 12)
      (oneof
         ([
            map (fun ms -> `Compute (1 + ms)) (0 -- 8);
            map (fun ms -> `Sleep (1 + ms)) (0 -- 8);
          ]
         @ if gpu then [ map (fun ms -> `Gpu (1 + ms)) (0 -- 4) ] else [])))

let to_script ops =
  let ops =
    List.map
      (function
        | `Compute ms -> W.Compute (Time.ms ms)
        | `Sleep ms -> W.Sleep (Time.ms ms)
        | `Gpu ms -> W.Gpu_batch [ W.spec ~kind:"k" ~work_s:(float_of_int ms /. 1e3) () ])
      ops
  in
  W.forever (fun () -> ops)

let arbitrary_scenario ~gpu =
  QCheck.make
    ~print:(fun (a, b, enter_ms, leave_ms) ->
      Printf.sprintf "tasks=%d/%d enter=%dms leave=%dms" (List.length a)
        (List.length b) enter_ms leave_ms)
    QCheck.Gen.(
      quad (gen_ops ~gpu) (gen_ops ~gpu) (10 -- 200) (210 -- 400))

(* Apps a and b each run the same script on both cores of a 2-core
   machine; a sits in a CPU psbox from [enter_ms] until [leave_ms], where
   the run pauses with a still inside. *)
let cpu_scenario ops_a ops_b ~enter_ms ~leave_ms =
  let sys = System.create ~cores:2 () in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (to_script ops_a));
  ignore (W.spawn sys ~app:a ~name:"a1" ~core:1 (to_script ops_a));
  ignore (W.spawn sys ~app:b ~name:"b0" ~core:0 (to_script ops_b));
  ignore (W.spawn sys ~app:b ~name:"b1" ~core:1 (to_script ops_b));
  System.start sys;
  let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
  System.run_for sys (Time.ms enter_ms);
  Psbox.enter box;
  System.run_for sys (Time.ms (leave_ms - enter_ms));
  (sys, box, b)

(* Invariant bundle for the CPU: the simulation terminates, busy core-time
   never exceeds wall capacity, and foreign tasks never run inside the
   sandboxed app's balloons. *)
let cpu_invariants_hold (ops_a, ops_b, enter_ms, leave_ms) =
  let sys, box, b = cpu_scenario ops_a ops_b ~enter_ms ~leave_ms in
  let intervals = Psbox.exclusive_intervals box in
  Psbox.leave box;
  System.run_for sys (Time.ms 50);
  let wall = Time.to_sec_f (System.now sys) in
  let busy = Psbox_hw.Cpu.busy_core_seconds (System.cpu sys) in
  Smp.stop (System.smp sys);
  let spans = Smp.sched_spans (System.smp sys) in
  let foreign_inside =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun s ->
            snd s.Trace.tag = b.System.app_id
            && min s.Trace.stop b1 > max s.Trace.start b0)
          spans)
      intervals
  in
  System.shutdown sys;
  busy <= (2.0 *. wall) +. 1e-9 && not foreign_inside

let prop_cpu_invariants =
  QCheck.Test.make ~name:"random CPU scenarios keep balloon invariants"
    ~count:40 (arbitrary_scenario ~gpu:false) cpu_invariants_hold

(* A case the property once drew: core 0 opens a coscheduling period and
   closes it at once, and core 1 reopens it one IPI delay later, just as
   the first period's join IPI reaches core 1. That stale IPI must not
   count toward the new period, or metering starts while core 0 still
   runs b. *)
let test_stale_join_ipi () =
  let c ms = `Compute ms and s ms = `Sleep ms in
  Alcotest.(check bool)
    "no foreign span inside a balloon" true
    (cpu_invariants_hold
       ( [ c 9; c 9; s 8; s 4; s 3 ],
         [ s 5; c 5; c 4; s 2; c 1; c 2; s 3; c 2; s 3; s 6; s 7 ],
         182,
         367 ))

(* The schedule recorder: stopped with a balloon possibly live, each
   core's spans, in start order, run from its first span's start to the
   stop instant with no gap or overlap, and a second stop adds none. *)
let prop_sched_spans_tile =
  QCheck.Test.make ~name:"scheduling spans tile each core up to stop"
    ~count:40 (arbitrary_scenario ~gpu:false)
    (fun (ops_a, ops_b, enter_ms, leave_ms) ->
      let sys, _, _ = cpu_scenario ops_a ops_b ~enter_ms ~leave_ms in
      let smp = System.smp sys in
      Smp.stop smp;
      let spans = Smp.sched_spans smp in
      Smp.stop smp;
      let again = Smp.sched_spans smp in
      let stop_at = System.now sys in
      System.shutdown sys;
      let rec tiles t = function
        | [] -> t = stop_at
        | s :: rest ->
            s.Trace.start = t && s.Trace.stop >= t && tiles s.Trace.stop rest
      in
      let core_tiles core =
        match List.filter (fun s -> fst s.Trace.tag = core) spans with
        | [] -> false
        | first :: _ as mine -> tiles first.Trace.start mine
      in
      core_tiles 0 && core_tiles 1 && again = spans)

(* GPU invariant: every submitted command completes exactly once, even
   across sandbox churn, and no foreign command executes inside a balloon. *)
let prop_gpu_invariants =
  QCheck.Test.make ~name:"random GPU scenarios keep temporal-balloon invariants"
    ~count:30 (arbitrary_scenario ~gpu:true)
    (fun (ops_a, ops_b, enter_ms, leave_ms) ->
      let sys = System.create ~cores:2 ~gpu:true () in
      let a = System.new_app sys ~name:"a" in
      let b = System.new_app sys ~name:"b" in
      ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (to_script ops_a));
      ignore (W.spawn sys ~app:b ~name:"b0" ~core:1 (to_script ops_b));
      System.start sys;
      let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Gpu ] in
      System.run_for sys (Time.ms enter_ms);
      Psbox.enter box;
      System.run_for sys (Time.ms (leave_ms - enter_ms));
      Psbox.leave box;
      System.run_for sys (Time.ms 100);
      let s = Accel_driver.sched (System.gpu sys) in
      let cmds = Ts.completed_items s in
      let intervals = Ts.balloon_intervals s in
      let all_complete =
        List.for_all
          (fun c -> c.Accel.started_at <> None && c.Accel.finished_at <> None)
          cmds
      in
      let ids = List.map (fun c -> c.Accel.id) cmds in
      let unique = List.length (List.sort_uniq compare ids) = List.length ids in
      let foreign_inside =
        List.exists
          (fun (b0, b1) ->
            List.exists
              (fun c ->
                c.Accel.app = b.System.app_id
                &&
                match (c.Accel.started_at, c.Accel.finished_at) with
                | Some s, Some f -> min f b1 > max s b0
                | _ -> false)
              cmds)
          intervals
      in
      System.shutdown sys;
      all_complete && unique && not foreign_inside)

(* A random network app: CPU bursts, sleeps, blocking sends and
   request/response exchanges, repeated a fixed number of times so every
   frame it will ever send is known up front. *)
let gen_net_ops =
  QCheck.Gen.(
    list_size (1 -- 8)
      (oneof
         [
           map (fun ms -> `Compute (1 + ms)) (0 -- 8);
           map (fun ms -> `Sleep (1 + ms)) (0 -- 8);
           map (fun b -> `Send b) (200 -- 20_000);
           map3
             (fun tx rx rtt -> `Request (tx, rx, rtt))
             (200 -- 2_000) (1 -- 12_000) (1 -- 20);
         ]))

let net_reps = 6

let to_net_script ops =
  W.repeat net_reps (fun _ ->
      List.map
        (function
          | `Compute ms -> W.Compute (Time.ms ms)
          | `Sleep ms -> W.Sleep (Time.ms ms)
          | `Send bytes -> W.Send { socket = 1; bytes }
          | `Request (tx_bytes, rx_bytes, rtt) ->
              W.Request { socket = 1; tx_bytes; rx_bytes; rtt = Time.ms rtt })
        ops)

(* (TX, RX) frames the script puts on the air: responses arrive in
   1500-byte chunks. *)
let expected_frames ops =
  let tx, rx =
    List.fold_left
      (fun (tx, rx) -> function
        | `Send _ -> (tx + 1, rx)
        | `Request (_, rx_bytes, _) -> (tx + 1, rx + max 1 ((rx_bytes + 1499) / 1500))
        | `Compute _ | `Sleep _ -> (tx, rx))
      (0, 0) ops
  in
  (net_reps * tx, net_reps * rx)

(* WiFi invariant: every frame airs exactly once, each app's TX frames air
   in send order, and no foreign frame is on the air inside a balloon. A
   NIC without virtual MACs cannot defer reception (§4.2), so there only
   foreign TX is held out of balloons; with virtual MACs foreign RX is
   too. *)
let prop_wifi_invariants ~virtual_macs =
  QCheck.Test.make
    ~name:
      (Printf.sprintf "random WiFi scenarios keep temporal-balloon invariants (%s)"
         (if virtual_macs then "virtual MACs" else "no virtual MACs"))
    ~count:100
    (QCheck.make
       ~print:(fun (a, b, enter_ms, leave_ms) ->
         Printf.sprintf "ops=%d/%d enter=%dms leave=%dms" (List.length a)
           (List.length b) enter_ms leave_ms)
       QCheck.Gen.(quad gen_net_ops gen_net_ops (10 -- 200) (210 -- 400)))
    (fun (ops_a, ops_b, enter_ms, leave_ms) ->
      let sys =
        System.create ~cores:2 ~wifi:true ~wifi_virtual_macs:virtual_macs ()
      in
      let a = System.new_app sys ~name:"a" in
      let b = System.new_app sys ~name:"b" in
      ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (to_net_script ops_a));
      ignore (W.spawn sys ~app:b ~name:"b0" ~core:1 (to_net_script ops_b));
      System.start sys;
      let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Wifi ] in
      System.run_for sys (Time.ms enter_ms);
      Psbox.enter box;
      System.run_for sys (Time.ms (leave_ms - enter_ms));
      Psbox.leave box;
      W.run_until_idle sys ~apps:[ a; b ] ~timeout:(Time.sec 20);
      System.run_for sys (Time.ms 100);
      let s = Net_sched.sched (System.net sys) in
      let frames = Ts.completed_items s in
      let intervals = Ts.balloon_intervals s in
      System.shutdown sys;
      let count app dir =
        List.length
          (List.filter (fun p -> p.Wifi.app = app && p.Wifi.dir = dir) frames)
      in
      let aired_once =
        List.for_all (fun p -> p.Wifi.air_start <> None && p.Wifi.air_end <> None) frames
        && (let ids = List.map (fun p -> p.Wifi.id) frames in
            List.length (List.sort_uniq compare ids) = List.length ids)
        && List.for_all
             (fun (app, ops) ->
               let tx, rx = expected_frames ops in
               count app `Tx = tx && count app `Rx = rx)
             [ (a.System.app_id, ops_a); (b.System.app_id, ops_b) ]
      in
      let tx_in_order app =
        let ids =
          List.filter (fun p -> p.Wifi.app = app && p.Wifi.dir = `Tx) frames
          |> List.sort (fun p q -> compare p.Wifi.air_start q.Wifi.air_start)
          |> List.map (fun p -> p.Wifi.id)
        in
        ids = List.sort compare ids
      in
      let foreign_inside =
        List.exists
          (fun (b0, b1) ->
            List.exists
              (fun p ->
                p.Wifi.app = b.System.app_id
                && (virtual_macs || p.Wifi.dir = `Tx)
                &&
                match (p.Wifi.air_start, p.Wifi.air_end) with
                | Some s, Some f -> min f b1 > max s b0
                | _ -> false)
              frames)
          intervals
      in
      aired_once
      && tx_in_order a.System.app_id
      && tx_in_order b.System.app_id
      && not foreign_inside)

(* The virtual meter never reports below the idle floor nor above the
   physical rail's maximum. *)
let prop_meter_bounded =
  QCheck.Test.make ~name:"virtual meter stays within physical bounds" ~count:40
    (arbitrary_scenario ~gpu:false)
    (fun (ops_a, ops_b, enter_ms, leave_ms) ->
      let sys = System.create ~cores:2 () in
      let a = System.new_app sys ~name:"a" in
      let b = System.new_app sys ~name:"b" in
      ignore (W.spawn sys ~app:a ~name:"a0" ~core:0 (to_script ops_a));
      ignore (W.spawn sys ~app:b ~name:"b0" ~core:1 (to_script ops_b));
      System.start sys;
      let box = Psbox.create sys ~app:a.System.app_id ~hw:[ Psbox.Cpu ] in
      System.run_for sys (Time.ms enter_ms);
      Psbox.enter box;
      System.run_for sys (Time.ms (leave_ms - enter_ms));
      let samples = Psbox.sample ~period:(Time.us 500) box in
      Psbox.leave box;
      let idle = Psbox_hw.Power_rail.idle_w (Psbox_hw.Cpu.rail (System.cpu sys)) in
      (* top OPP, both cores: 0.3 + 1.2 + 2x1.0 *)
      let phys_max = 3.5 +. 1e-9 in
      let ok =
        Array.for_all
          (fun s ->
            s.Psbox_meter.Sample.watts >= idle -. 1e-9
            && s.Psbox_meter.Sample.watts <= phys_max)
          samples
      in
      System.shutdown sys;
      ok)

(* The paper's core claim as a property: the psbox observation of a FIXED
   workload stays in a narrow band regardless of what random co-runners do
   on the machine. *)
let fixed_job_mj ~co_ops =
  let sys = System.create ~seed:97 ~cores:2 () in
  let main = System.new_app sys ~name:"fixed" in
  ignore
    (W.spawn sys ~app:main ~name:"job" ~core:0
       (W.repeat 40 (fun _ -> [ W.Compute (Time.ms 6); W.Sleep (Time.ms 2) ])));
  (match co_ops with
  | Some ops ->
      let co = System.new_app sys ~name:"co" in
      ignore (W.spawn sys ~app:co ~name:"co0" ~core:1 (to_script ops));
      ignore (W.spawn sys ~app:co ~name:"co1" ~core:0 (to_script ops))
  | None -> ());
  let box = Psbox.create sys ~app:main.System.app_id ~hw:[ Psbox.Cpu ] in
  System.start sys;
  Psbox.enter box;
  W.run_until_idle sys ~apps:[ main ] ~timeout:(Time.sec 10);
  let mj = Psbox.read_mj box in
  Psbox.leave box;
  System.shutdown sys;
  mj

let reference_mj = lazy (fixed_job_mj ~co_ops:None)

let prop_observation_insulated =
  QCheck.Test.make
    ~name:"psbox observation insulated from arbitrary co-runners" ~count:25
    (QCheck.make
       ~print:(fun ops -> Printf.sprintf "|ops|=%d" (List.length ops))
       (gen_ops ~gpu:false))
    (fun ops ->
      let alone = Lazy.force reference_mj in
      let co = fixed_job_mj ~co_ops:(Some ops) in
      Float.abs (co -. alone) /. alone < 0.15)

let suite =
  Alcotest.test_case "a stale join IPI does not open a balloon" `Quick
    test_stale_join_ipi
  :: List.map QCheck_alcotest.to_alcotest
       [
         prop_cpu_invariants; prop_sched_spans_tile; prop_gpu_invariants;
         prop_wifi_invariants ~virtual_macs:false;
         prop_wifi_invariants ~virtual_macs:true; prop_meter_bounded;
         prop_observation_insulated;
       ]
