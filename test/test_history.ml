(* Bounded kernel histories: a machine's per-event logs keep only its rail
   retention window, hold exactly the entries an unbounded machine has in
   that window, and stop growing once the window is full. *)
open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Ts = Psbox_kernel.Temporal_sched
module Wifi = Psbox_hw.Wifi
module Accel = Psbox_hw.Accel
module W = Psbox_workloads.Workload

let check_strings = Alcotest.(check (list string))

(* ---- window equivalence -------------------------------------------- *)

let period = Time.ms 100

(* Run [ops] at every period boundary, then sleep to the next one. *)
let bursts sys ops =
  let working = ref false in
  fun () ->
    working := not !working;
    if !working then Some ops
    else
      let now = System.now sys in
      Some [ W.Sleep (((now / period) + 1) * period - now) ]

(* Two apps on a 2-core + GPU + WiFi machine work in bursts at every
   100 ms boundary — GPU commands, WiFi traffic and CPU time — each burst
   over well within 50 ms. Every history entry is therefore stamped in the
   first half of a period. *)
let bursty_machine ~rail_retention =
  let sys = System.create ~cores:2 ~gpu:true ~wifi:true ~rail_retention () in
  let a = System.new_app sys ~name:"a" in
  let b = System.new_app sys ~name:"b" in
  ignore
    (W.spawn sys ~app:a ~name:"a" ~core:0
       (bursts sys
          [
            W.Gpu_batch [ W.spec ~kind:"frame" ~work_s:0.002 () ];
            W.Request
              { socket = 1; tx_bytes = 3_000; rx_bytes = 12_000; rtt = Time.ms 2 };
            W.Compute (Time.ms 3);
          ]));
  ignore
    (W.spawn sys ~app:b ~name:"b" ~core:1
       (bursts sys
          [
            W.Compute (Time.ms 4);
            W.Send { socket = 2; bytes = 6_000 };
            W.Gpu_batch
              [
                W.spec ~kind:"blit" ~work_s:0.001 ();
                W.spec ~kind:"blit" ~work_s:0.001 ();
              ];
          ]));
  System.start sys;
  (sys, a.System.app_id)

(* Every history accessor, entry by entry, with the entry's stamp where
   the entry carries it. Packet and command ids are left out: they number
   all of a domain's packets and commands, across machines. *)
let histories (sys, app) =
  let opt = function Some t -> string_of_int t | None -> "-" in
  let lat (a, us) = (None, Printf.sprintf "%d %h" a us) in
  let us x = (None, Printf.sprintf "%h" x) in
  let net = System.net sys and gpu = System.gpu sys and smp = System.smp sys in
  [
    ("net dispatch latencies", List.map lat (Ts.dispatch_latencies_us (Net_sched.sched net)));
    ( "packet log",
      List.map
        (fun (p : Wifi.pkt) ->
          ( p.air_end,
            Printf.sprintf "%d %d %d %s %s" p.app p.socket p.bytes
              (opt p.air_start) (opt p.air_end) ))
        (Ts.completed_items (Net_sched.sched net)) );
    ("gpu dispatch latencies", List.map lat (Ts.dispatch_latencies_us (Accel_driver.sched gpu)));
    ( "gpu completed commands",
      List.map
        (fun (c : Accel.command) ->
          ( c.finished_at,
            Printf.sprintf "%d %s %d %s %s" c.app c.kind c.submitted_at
              (opt c.started_at) (opt c.finished_at) ))
        (Ts.completed_items (Accel_driver.sched gpu)) );
    ( "sched spans",
      List.map
        (fun (s : (int * int) Trace.span) ->
          let core, a = s.tag in
          (Some s.stop, Printf.sprintf "%d %d %d %d" core a s.start s.stop))
        (Smp.sched_spans smp) );
    ("wake latencies", List.map us (Array.to_list (Smp.wakeup_latencies_us smp)));
    ( "wake latencies of one app",
      List.map us (Array.to_list (Smp.wakeup_latencies_of smp ~app)) );
  ]

(* [l] without one occurrence of each entry of [earlier], order kept. *)
let without ~earlier l =
  let bag = Hashtbl.create 64 in
  let count e = Option.value ~default:0 (Hashtbl.find_opt bag e) in
  List.iter (fun e -> Hashtbl.replace bag e (count e + 1)) earlier;
  List.filter
    (fun e ->
      let n = count e in
      if n > 0 then Hashtbl.replace bag e (n - 1);
      n = 0)
    l

let test_window_equivalence () =
  let r = Time.ms 1_050 in
  let full = bursty_machine ~rail_retention:None in
  let windowed = bursty_machine ~rail_retention:(Some r) in
  let run_to t =
    List.iter
      (fun (sys, _) -> System.run_for sys (t - System.now sys))
      [ full; windowed ]
  in
  (* shorter than R: the whole list *)
  run_to (Time.ms 975);
  List.iter2
    (fun (name, f) (_, w) -> check_strings name (List.map snd f) (List.map snd w))
    (histories full) (histories windowed);
  (* The last burst starts at 3.0 s, so each history's newest entry is
     stamped in [3.0 s, 3.05 s) and the window edge in [1.95 s, 2.0 s):
     the window holds exactly what was recorded from the 2.0 s burst on,
     i.e. all but what the unbounded machine held at 1.975 s. *)
  run_to (Time.ms 1_975);
  let earlier = List.map (fun (_, h) -> List.map snd h) (histories full) in
  run_to (Time.ms 3_075);
  List.iter2
    (fun earlier ((name, f), (_, w)) ->
      Alcotest.(check bool) (name ^ " drops entries") true (earlier <> []);
      check_strings name (without ~earlier (List.map snd f)) (List.map snd w))
    earlier
    (List.combine (histories full) (histories windowed));
  (* where entries carry their stamp, check the rule itself: keep what is
     stamped no more than R before the newest *)
  List.iter2
    (fun (name, f) (_, w) ->
      match List.filter_map fst f with
      | [] -> ()
      | stamps ->
          let edge = List.fold_left max 0 stamps - r in
          let inside = function Some t -> t >= edge | None -> false in
          check_strings (name ^ " by stamp")
            (List.filter_map (fun (t, e) -> if inside t then Some e else None) f)
            (List.map snd w))
    (histories full) (histories windowed)

(* ---- plateau ------------------------------------------------------- *)

(* A 2-core + GPU + WiFi machine: GPU frames and WiFi requests on one
   core, a CPU spinner on the other, no budget cap. *)
let busy_machine ~rail_retention =
  let sys = System.create ~cores:2 ~gpu:true ~wifi:true ~rail_retention () in
  let a = System.new_app sys ~name:"tenant" in
  let b = System.new_app sys ~name:"spinner" in
  ignore
    (W.spawn sys ~app:a ~name:"frames" ~core:0
       (W.forever (fun () ->
            [
              W.Gpu_async (W.spec ~kind:"frame" ~work_s:0.002 ());
              W.Request
                { socket = 1; tx_bytes = 3_000; rx_bytes = 12_000; rtt = Time.ms 2 };
            ])));
  ignore
    (W.spawn sys ~app:b ~name:"spin" ~core:1
       (W.forever (fun () -> [ W.Compute (Time.ms 5) ])));
  System.start sys;
  sys

(* Past the 5 s retention window, the machine's live words stay flat. *)
let test_plateau () =
  let sys = busy_machine ~rail_retention:(Some (Time.sec 5)) in
  let words () = Obj.reachable_words (Obj.repr sys) in
  System.run_for sys (Time.sec 15);
  let w15 = words () in
  System.run_for sys (Time.sec 15);
  let w30 = words () in
  if abs (w30 - w15) * 100 >= w15 then
    Alcotest.failf "live words grew from %d at 15 s to %d at 30 s" w15 w30

let suite =
  [
    ("windowed histories match unbounded ones", `Quick, test_window_equivalence);
    ("plateau past the retention window", `Quick, test_plateau);
  ]
