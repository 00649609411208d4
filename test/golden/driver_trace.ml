(* Scripted traces of the two temporal-balloon drivers, for the golden
   rules in this directory. Each scenario drives one driver through the
   paths no experiment reaches and prints what it can observe: balloon
   edges, completed items, balloon intervals, credits, lost bytes, the
   driver's metrics and its trace events.

   Usage: driver_trace.exe accel|net *)
open Psbox_engine
module Accel = Psbox_hw.Accel
module Wifi = Psbox_hw.Wifi
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Ts = Psbox_kernel.Temporal_sched
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

let at sim us f = ignore (Sim.schedule_at sim (Time.us us) f)
let say sim fmt = Printf.printf ("t=%d " ^^ fmt ^^ "\n") (Sim.now sim)
let stamp = function Some t -> string_of_int t | None -> "-"

let listen sim s =
  Ts.set_balloon_listener s
    ~on_start:(fun () -> say sim "balloon start")
    ~on_stop:(fun _ -> say sim "balloon stop")

let probe sim s in_flight name =
  say sim "%s open=%b sandboxed=%s in_flight=%d" name (Ts.balloon_open s)
    (match Ts.sandboxed s with Some a -> string_of_int a | None -> "-")
    (in_flight ())

let leave sim s in_flight () =
  probe sim s in_flight "before unsandbox";
  Ts.unsandbox s;
  probe sim s in_flight "after unsandbox"

let say_gate sim s ~app =
  match Ts.gated_until s ~app with
  | Some t -> say sim "app%d gated until %d" app t
  | None -> say sim "app%d not gated" app

let print_tail s =
  List.iter
    (fun (t0, t1) -> Printf.printf "balloon %d %d\n" t0 t1)
    (Ts.balloon_intervals s)

let print_telemetry s =
  List.iter
    (fun (app, us) -> Printf.printf "latency app%d %.3f\n" app us)
    (Ts.dispatch_latencies_us s);
  List.iter (fun (k, v) -> Printf.printf "metric %s %s\n" k v) (Tm.snapshot ());
  List.iter
    (fun (e : Tt.event) ->
      Printf.printf "trace %s/%s %s ts=%d dur=%d%s\n" e.track e.lane e.name
        e.ts e.dur
        (String.concat ""
           (List.map (fun (k, v) -> Printf.sprintf " %s=%g" k v) e.args)))
    (Tt.events ())

(* GPU-like device with SGX-style [Lock_requests] buffering. App 3 does a
   long command, then is rate-gated; its gate reopens while app 1's first
   balloon serves (11.5-12.5 ms). App 2's submission at 21 ms stalls in the
   second balloon until flush-others. App 1 leaves psbox once while served
   (30 ms) and once while foreign work drains (42 ms). *)
let accel () =
  let sim = Sim.create () in
  let dev =
    Accel.create sim ~name:"gpu" ~units:2 ~governor:Psbox_hw.Dvfs.Performance
      ~idle_w:0.1 ()
  in
  let d =
    Accel_driver.create sim dev ~buffering:Accel_driver.Lock_requests ~window:2
      ()
  in
  let s = Accel_driver.sched d in
  listen sim s;
  let submit app work_us =
    let cmd =
      Accel.command ~app ~kind:"k" ~work_s:(float_of_int work_us *. 1e-6) ()
    in
    let id = cmd.Accel.id in
    let blocks = Accel_driver.submission_blocks d ~app in
    Accel_driver.submit d ~app cmd
      ~on_accepted:(fun () -> if blocks then say sim "app%d cmd%d accepted" app id)
      ~on_complete:(fun _ -> say sim "app%d cmd%d done" app id);
    if blocks then say sim "app%d cmd%d stalls" app id
  in
  let in_flight () = Accel.in_flight dev in
  let probe = probe sim s in_flight and leave = leave sim s in_flight in
  Tt.start ();
  at sim 0 (fun () ->
      submit 2 1_000;
      submit 3 10_000);
  at sim 10_500 (fun () ->
      Ts.set_rate s ~app:3 (Some 0.5);
      submit 3 1_000;
      submit 3 1_000;
      say_gate sim s ~app:3);
  at sim 11_000 (fun () ->
      Ts.sandbox s ~app:1;
      for _ = 1 to 3 do submit 1 1_000 done;
      probe "sandboxed");
  at sim 20_000 (fun () ->
      probe "probe";
      submit 1 3_000;
      submit 1 3_000);
  at sim 21_000 (fun () ->
      probe "probe";
      submit 2 1_000);
  at sim 25_000 (fun () -> submit 1 1_000);
  at sim 30_000 leave;
  at sim 40_000 (fun () ->
      Ts.set_rate s ~app:3 None;
      submit 2 8_000);
  at sim 41_000 (fun () ->
      Ts.sandbox s ~app:1;
      submit 1 1_000;
      probe "sandboxed");
  at sim 42_000 leave;
  Sim.run_until sim (Time.ms 80);
  Tt.stop ();
  List.iter
    (fun c ->
      Printf.printf "item cmd%d app%d %s start=%s end=%s\n" c.Accel.id c.Accel.app
        c.Accel.kind (stamp c.Accel.started_at) (stamp c.Accel.finished_at))
    (Ts.completed_items s);
  print_tail s;
  List.iter
    (fun app ->
      Printf.printf "app%d credit=%.17g completed=%d pending=%d\n" app
        (Ts.credit s ~app) (Accel_driver.completed d ~app) (Ts.pending s ~app))
    [ 1; 2; 3 ];
  print_telemetry s

(* WiFi NIC with virtual MACs. App 3 sends a long frame, then is
   rate-gated; its gate reopens at 14 ms while app 1's first balloon
   serves. Foreign RX for app 2 arriving inside that balloon is held until
   it closes, while app 1's own RX is served in a balloon. A frame of app
   2's arriving while app 1 idles in the second balloon is charged to app
   1 as lost opportunity. App 1 leaves psbox once while served (30 ms) and
   once while its own frame drains (50.6 ms). *)
let net () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ~virtual_macs:true () in
  let d = Net_sched.create sim nic in
  let s = Net_sched.sched d in
  listen sim s;
  let done_ app p =
    say sim "app%d pkt%d %s done" app p.Wifi.id
      (match p.Wifi.dir with `Tx -> "tx" | `Rx -> "rx")
  in
  let send app bytes =
    Net_sched.send d ~app ~socket:app ~bytes ~on_sent:(done_ app)
  in
  let rx app bytes =
    Net_sched.deliver_rx d ~app ~socket:app ~bytes ~on_rx:(done_ app)
  in
  let in_flight () = Wifi.in_flight nic in
  let probe = probe sim s in_flight and leave = leave sim s in_flight in
  Tt.start ();
  at sim 0 (fun () ->
      send 2 5_000;
      send 3 50_000);
  at sim 12_000 (fun () ->
      Ts.set_rate s ~app:3 (Some 2.5e6);
      send 3 5_000;
      send 3 5_000;
      say_gate sim s ~app:3);
  at sim 13_500 (fun () ->
      Ts.sandbox s ~app:1;
      for _ = 1 to 3 do send 1 5_000 done;
      probe "sandboxed");
  at sim 13_800 (fun () -> rx 2 1_500);
  at sim 14_200 (fun () -> rx 1 3_000);
  at sim 25_000 (fun () -> send 2 5_000);
  at sim 27_000 (fun () -> send 1 5_000);
  at sim 30_000 leave;
  at sim 40_000 (fun () ->
      Ts.set_rate s ~app:3 None;
      send 2 50_000);
  at sim 41_000 (fun () ->
      Ts.sandbox s ~app:1;
      send 1 5_000;
      probe "sandboxed");
  at sim 50_500 (fun () ->
      send 3 5_000;
      probe "yielding");
  at sim 50_600 leave;
  at sim 60_000 (fun () -> rx 3 1_500);
  Sim.run_until sim (Time.ms 80);
  Tt.stop ();
  List.iter
    (fun p ->
      Printf.printf "item pkt%d app%d %s bytes=%d start=%s end=%s\n" p.Wifi.id
        p.Wifi.app
        (match p.Wifi.dir with `Tx -> "tx" | `Rx -> "rx")
        p.Wifi.bytes (stamp p.Wifi.air_start) (stamp p.Wifi.air_end))
    (Ts.completed_items s);
  print_tail s;
  List.iter
    (fun app ->
      Printf.printf "app%d credit=%.17g sent=%d pending=%d\n" app
        (Ts.credit s ~app) (Net_sched.sent_bytes d ~app) (Ts.pending s ~app))
    [ 1; 2; 3 ];
  Printf.printf "lost bytes charged %d\n" (Net_sched.lost_bytes_charged d);
  print_telemetry s

let () =
  match Sys.argv with
  | [| _; "accel" |] -> accel ()
  | [| _; "net" |] -> net ()
  | _ ->
      prerr_endline "usage: driver_trace.exe accel|net";
      exit 2
