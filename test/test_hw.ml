(* Tests for the hardware models: rails, DVFS, CPU, accelerator, WiFi. *)
open Psbox_engine
open Psbox_hw

let check_float = Alcotest.(check (float 1e-6))
let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ---- Power_rail ---------------------------------------------------- *)

let test_rail_energy () =
  let sim = Sim.create () in
  let rail = Power_rail.create sim ~name:"r" ~idle_w:0.5 in
  Sim.run_until sim (Time.sec 1);
  Power_rail.set_power rail 2.0;
  Sim.run_until sim (Time.sec 2);
  Power_rail.set_power rail 0.5;
  Sim.run_until sim (Time.sec 3);
  (* 1s @ 0.5 + 1s @ 2.0 + 1s @ 0.5 *)
  check_float "energy" 3.0 (Power_rail.energy_j rail ~from:0 ~until:(Time.sec 3));
  check_float "now" 0.5 (Power_rail.power rail);
  Alcotest.(check string) "name" "r" (Power_rail.name rail)

(* ---- Dvfs ---------------------------------------------------------- *)

let opps =
  [|
    { Dvfs.freq_mhz = 100; core_w = 0.1; uncore_w = 0.1 };
    { Dvfs.freq_mhz = 200; core_w = 0.2; uncore_w = 0.2 };
    { Dvfs.freq_mhz = 400; core_w = 0.4; uncore_w = 0.4 };
  |]

let test_dvfs_performance_pins_top () =
  let sim = Sim.create () in
  let d =
    Dvfs.create sim ~opps ~governor:Dvfs.Performance
      ~get_util:(fun () -> 0.0)
      ()
  in
  check_int "top opp" 2 (Dvfs.opp_index d)

let test_dvfs_ondemand_ramp_and_decay () =
  let sim = Sim.create () in
  let util = ref 1.0 in
  let changes = ref 0 in
  let d =
    Dvfs.create sim
      ~opps
      ~governor:(Dvfs.Ondemand { up_threshold = 0.8; sampling = Time.ms 10 })
      ~get_util:(fun () -> !util)
      ()
  in
  ignore (Bus.subscribe (Dvfs.changes d) (fun _ -> incr changes));
  check_int "starts lowest" 0 (Dvfs.opp_index d);
  Sim.run_until sim (Time.ms 15);
  check_int "jumps to top under load" 2 (Dvfs.opp_index d);
  util := 0.0;
  Sim.run_until sim (Time.ms 25);
  check_int "decays one step" 1 (Dvfs.opp_index d);
  Sim.run_until sim (Time.ms 35);
  check_int "decays to bottom" 0 (Dvfs.opp_index d);
  Dvfs.stop d

let test_dvfs_freeze () =
  let sim = Sim.create () in
  let d =
    Dvfs.create sim ~opps
      ~governor:(Dvfs.Ondemand { up_threshold = 0.8; sampling = Time.ms 10 })
      ~get_util:(fun () -> 1.0)
      ()
  in
  Dvfs.freeze d;
  Sim.run_until sim (Time.ms 50);
  check_int "frozen at bottom" 0 (Dvfs.opp_index d);
  check_bool "frozen" true (Dvfs.frozen d);
  Dvfs.thaw d;
  Sim.run_until sim (Time.ms 65);
  check_int "ramps after thaw" 2 (Dvfs.opp_index d);
  Dvfs.stop d

let test_dvfs_set_opp () =
  let sim = Sim.create () in
  let d =
    Dvfs.create sim ~opps ~governor:Dvfs.Userspace
      ~get_util:(fun () -> 1.0)
      ()
  in
  Dvfs.set_opp d 1;
  check_int "set" 1 (Dvfs.opp_index d);
  Dvfs.set_opp d 99;
  check_int "clamped" 2 (Dvfs.opp_index d)

(* ---- Cpu ----------------------------------------------------------- *)

let test_cpu_power_model () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~governor:Dvfs.Performance ~cores:2 () in
  let rail = Cpu.rail cpu in
  check_float "idle" 0.3 (Power_rail.power rail);
  Cpu.set_core_busy cpu ~core:0 true;
  (* idle + uncore + 1 core at the top OPP (1.0 core, 1.2 uncore) *)
  check_float "one busy" 2.5 (Power_rail.power rail);
  Cpu.set_core_busy cpu ~core:1 true;
  check_float "two busy: shared uncore not doubled" 3.5 (Power_rail.power rail);
  Cpu.set_core_busy cpu ~core:0 false;
  Cpu.set_core_busy cpu ~core:1 false;
  check_float "idle again" 0.3 (Power_rail.power rail);
  Cpu.stop cpu

let test_cpu_busy_accounting () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~governor:Dvfs.Performance ~cores:2 () in
  Cpu.set_core_busy cpu ~core:0 true;
  Sim.run_until sim (Time.sec 1);
  Cpu.set_core_busy cpu ~core:1 true;
  Sim.run_until sim (Time.sec 2);
  check_float "busy core-seconds" 3.0 (Cpu.busy_core_seconds cpu);
  check_float "active seconds" 2.0 (Cpu.active_seconds cpu);
  check_int "busy cores" 2 (Cpu.busy_cores cpu);
  Cpu.stop cpu

let test_cpu_idempotent_busy () =
  let sim = Sim.create () in
  let cpu = Cpu.create sim ~governor:Dvfs.Performance ~cores:1 () in
  Cpu.set_core_busy cpu ~core:0 true;
  Sim.run_until sim (Time.sec 1);
  Cpu.set_core_busy cpu ~core:0 true;
  Sim.run_until sim (Time.sec 2);
  check_float "no double counting" 2.0 (Cpu.busy_core_seconds cpu);
  Cpu.stop cpu

(* ---- Accel --------------------------------------------------------- *)

let mk_accel ?autosuspend sim =
  Accel.create sim ~name:"acc" ~units:2 ~governor:Dvfs.Performance
    ~idle_w:0.1 ?autosuspend ()

let test_accel_execution () =
  let sim = Sim.create () in
  let dev = mk_accel sim in
  let done_ids = ref [] in
  Accel.set_on_complete dev (fun c -> done_ids := c.Accel.id :: !done_ids);
  let c1 = Accel.command ~app:1 ~kind:"k" ~work_s:0.010 () in
  Accel.submit dev c1;
  check_int "in flight" 1 (Accel.in_flight dev);
  Sim.run_until sim (Time.ms 20);
  check_int "completed" 1 (List.length !done_ids);
  check_bool "start recorded" true (c1.Accel.started_at <> None);
  check_bool "finish recorded" true (c1.Accel.finished_at <> None);
  Accel.stop dev

let test_accel_overlap_and_queueing () =
  let sim = Sim.create () in
  let dev = mk_accel sim in
  let c1 = Accel.command ~app:1 ~kind:"a" ~work_s:0.010 () in
  let c2 = Accel.command ~app:2 ~kind:"b" ~work_s:0.010 () in
  let c3 = Accel.command ~app:3 ~kind:"c" ~work_s:0.010 () in
  Accel.submit dev c1;
  Accel.submit dev c2;
  Accel.submit dev c3;
  (* 2 units: c1 and c2 run concurrently, c3 waits *)
  check_int "busy units" 2 (Accel.busy_units dev);
  Sim.run_until sim (Time.ms 12);
  check_bool "c1 done" true (c1.Accel.finished_at <> None);
  check_bool "c3 started after a unit freed" true (c3.Accel.started_at <> None);
  Sim.run_until sim (Time.ms 30);
  check_bool "all done" true (c3.Accel.finished_at <> None);
  (* c1 and c2 overlapped *)
  let s2 = Option.get c2.Accel.started_at and f1 = Option.get c1.Accel.finished_at in
  check_bool "overlap" true (s2 < f1);
  Accel.stop dev

let test_accel_power () =
  let sim = Sim.create () in
  let dev = mk_accel sim in
  let rail = Accel.rail dev in
  check_float "idle" 0.1 (Power_rail.power rail);
  let c = Accel.command ~app:1 ~kind:"k" ~work_s:0.010 ~intensity:2.0 () in
  Accel.submit dev c;
  (* idle + uncore(top 0.18) + 1 unit x intensity 2.0 x core 0.40 *)
  check_float "active" (0.1 +. 0.18 +. 0.8) (Power_rail.power rail);
  Sim.run_until sim (Time.ms 20);
  check_float "idle after" 0.1 (Power_rail.power rail);
  Accel.stop dev

let test_accel_autosuspend_and_resume () =
  let sim = Sim.create () in
  let dev = mk_accel ~autosuspend:(Time.ms 50) sim in
  let c = Accel.command ~app:1 ~kind:"k" ~work_s:0.001 () in
  Accel.submit dev c;
  Sim.run_until sim (Time.ms 10);
  check_bool "not suspended yet" false (Accel.suspended dev);
  Sim.run_until sim (Time.ms 100);
  check_bool "suspended after idle" true (Accel.suspended dev);
  check_bool "suspend power below idle"
    true
    (Power_rail.power (Accel.rail dev) < 0.1);
  let c2 = Accel.command ~app:1 ~kind:"k" ~work_s:0.001 () in
  Accel.submit dev c2;
  check_bool "resumes" false (Accel.suspended dev);
  Sim.run_until sim (Time.ms 200);
  check_bool "c2 completed after resume delay" true (c2.Accel.finished_at <> None);
  (* resume delay of 5 ms must show in the start time *)
  check_bool "resume delay paid" true
    (Option.get c2.Accel.started_at - c2.Accel.submitted_at >= Time.ms 5);
  Accel.stop dev

let test_accel_freq_scales_duration () =
  let sim = Sim.create () in
  let dev =
    Accel.create sim ~name:"slow" ~units:1 ~governor:Dvfs.Userspace ~idle_w:0.1 ()
  in
  (* Userspace governor starts at the lowest OPP: 200 MHz vs 532 top *)
  let c = Accel.command ~app:1 ~kind:"k" ~work_s:0.010 () in
  Accel.submit dev c;
  Sim.run_until sim (Time.ms 80);
  let dur = Option.get c.Accel.finished_at - Option.get c.Accel.started_at in
  (* 10 ms of work at 200/532 speed ~ 26.6 ms *)
  check_bool "slowed by low clock" true (dur > Time.ms 20 && dur < Time.ms 35);
  Accel.stop dev

let test_accel_busy_unit_seconds () =
  let sim = Sim.create () in
  let dev = mk_accel sim in
  let c = Accel.command ~app:1 ~kind:"k" ~work_s:0.010 ~units:2 () in
  Accel.submit dev c;
  Sim.run_until sim (Time.ms 50);
  check_float "unit-seconds" 0.020 (Accel.busy_unit_seconds dev);
  check_float "active seconds" 0.010 (Accel.active_seconds dev);
  Accel.stop dev

(* ---- Wifi ---------------------------------------------------------- *)

let test_wifi_transmit_and_tail () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ~tail:(Time.ms 80) () in
  let rail = Wifi.rail nic in
  check_float "power-save" 0.03 (Power_rail.power rail);
  let sent = ref 0 in
  Wifi.set_on_sent nic (fun _ -> incr sent);
  Wifi.transmit nic (Wifi.packet ~app:1 ~socket:1 ~bytes:10_000 ());
  check_bool "awake while tx" true (Wifi.awake nic);
  check_bool "tx power" true (Power_rail.power rail > 0.5);
  Sim.run_until sim (Time.ms 10);
  check_int "sent" 1 !sent;
  check_bool "still awake (tail)" true (Wifi.awake nic);
  check_float "awake idle" 0.25 (Power_rail.power rail);
  Sim.run_until sim (Time.ms 200);
  check_bool "asleep after tail" false (Wifi.awake nic);
  check_float "power-save again" 0.03 (Power_rail.power rail)

let test_wifi_serializes () =
  let sim = Sim.create () in
  let nic = Wifi.create sim () in
  let p1 = Wifi.packet ~app:1 ~socket:1 ~bytes:50_000 () in
  let p2 = Wifi.packet ~app:2 ~socket:2 ~bytes:50_000 () in
  Wifi.transmit nic p1;
  Wifi.transmit nic p2;
  Sim.run_until sim (Time.sec 1);
  let f1 = Option.get p1.Wifi.air_end and s2 = Option.get p2.Wifi.air_start in
  check_bool "no overlap on air" true (s2 >= f1)

let test_wifi_power_state_roundtrip () =
  let sim = Sim.create () in
  let nic = Wifi.create sim () in
  Wifi.set_mode_adapt nic false;
  Wifi.set_tx_level nic 0;
  let st = Wifi.power_state nic in
  Wifi.set_tx_level nic 2;
  Wifi.restore_power_state nic st;
  check_int "level restored" 0 (Wifi.tx_level nic);
  check_bool "asleep restored" false (Wifi.awake nic);
  ignore sim

let test_wifi_mode_adaptation () =
  let sim = Sim.create () in
  let nic = Wifi.create sim () in
  (* sustained traffic must raise the mode; silence must drop it *)
  let rec burst n =
    if n > 0 then
      Wifi.transmit nic (Wifi.packet ~app:1 ~socket:1 ~bytes:60_000 ())
    |> fun () -> burst (n - 1)
  in
  burst 30;
  Sim.run_until sim (Time.ms 400);
  check_int "hot mode under load" 2 (Wifi.tx_level nic);
  Sim.run_until sim (Time.sec 2);
  Wifi.transmit nic (Wifi.packet ~app:1 ~socket:1 ~bytes:100 ());
  Sim.run_until sim (Time.sec 3);
  check_int "cool mode after silence" 0 (Wifi.tx_level nic)

let test_wifi_mac_switch_resets_assoc () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ~virtual_macs:false () in
  Wifi.switch_mac nic ~mac:1;
  check_bool "lost association" false (Wifi.associated nic);
  let p = Wifi.packet ~app:1 ~socket:1 ~bytes:1000 () in
  Wifi.transmit nic p;
  Sim.run_until sim (Time.ms 10);
  check_bool "stalled while reassociating" true (p.Wifi.air_start = None);
  Sim.run_until sim (Time.ms 300);
  check_bool "sent after reassociation" true (p.Wifi.air_end <> None)

let test_wifi_virtual_mac_switch_free () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ~virtual_macs:true () in
  Wifi.switch_mac nic ~mac:1;
  check_bool "stays associated" true (Wifi.associated nic);
  ignore sim

(* With adaptation off, the airtime window still forgets frames that ended
   more than 200 ms ago: under steady traffic the NIC's memory stays flat.
   (What it reaches includes the event queue, whose slot storage creeps up
   by about 100 words a second here; an unpruned window would add 2 words
   per frame, 2000 a second.) *)
let test_wifi_window_bounded_without_adaptation () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ~retention:(Time.sec 1) () in
  Wifi.set_mode_adapt nic false;
  ignore
    (Sim.schedule_every sim (Time.ms 1) (fun () ->
         Wifi.transmit nic (Wifi.packet ~app:1 ~socket:1 ~bytes:1_000 ())));
  let words () = Obj.reachable_words (Obj.repr nic) in
  Sim.run_until sim (Time.sec 3);
  let w3 = words () in
  Sim.run_until sim (Time.sec 6);
  let w6 = words () in
  if abs (w6 - w3) * 20 >= w3 then
    Alcotest.failf "NIC grew from %d words at 3 s to %d at 6 s" w3 w6

(* Mode adaptation as it stood before the O(1) airtime window: every frame
   filtered the (end, airtime) pairs of the trailing 200 ms and folded their
   airtime. Kept as the reference the NIC must match, level for level. *)
type filter_fold = {
  mutable recent : (Time.t * Time.span) list;
  mutable level : int;
}

let filter_fold_adapt st ~levels now =
  let window = Time.ms 200 in
  st.recent <- List.filter (fun (t_end, _) -> now - t_end < window) st.recent;
  let air = List.fold_left (fun acc (_, a) -> acc + a) 0 st.recent in
  let util = float_of_int air /. float_of_int window in
  let top = levels - 1 in
  st.level <- (if util > 0.5 then top else if util > 0.15 then min 1 top else 0)

(* Random frames (gap before, size, direction) each carry a change to the
   adaptation switches, applied when the frame completes: 0 freezes, 1
   thaws, 2 turns adaptation off, 3 back on, anything else (5 in 6) leaves
   them.
   Gaps and airtimes are whole milliseconds (5000 m - 1000 bytes take
   m ms on the air with the 200 us per-frame overhead), so frames often
   end exactly 200 ms before another starts, on the window's edge. *)
let prop_wifi_window_matches_filter_fold =
  QCheck.Test.make ~name:"wifi airtime window picks the filter/fold TX level"
    ~count:400
    QCheck.(
      list_of_size Gen.(1 -- 150)
        (quad (int_range 0 120) (int_range 1 50) bool (int_range 0 23)))
    (fun frames ->
      let sim = Sim.create () in
      let nic = Wifi.create sim () in
      let switch nic = function
        | 0 -> Wifi.freeze_mode nic
        | 1 -> Wifi.thaw_mode nic
        | 2 -> Wifi.set_mode_adapt nic false
        | 3 -> Wifi.set_mode_adapt nic true
        | _ -> ()
      in
      let switches = Hashtbl.create 64 and sent = ref [] in
      Wifi.set_on_sent nic (fun p ->
          let k = Hashtbl.find switches p.Wifi.id in
          sent := (p, Wifi.tx_level nic, k) :: !sent;
          switch nic k);
      let t = ref 0 in
      List.iter
        (fun (gap_ms, air_ms, rx, k) ->
          t := !t + Time.ms gap_ms;
          let dir = if rx then `Rx else `Tx in
          let bytes = (5000 * air_ms) - 1000 in
          let p = Wifi.packet ~app:1 ~socket:1 ~bytes ~dir () in
          Hashtbl.replace switches p.Wifi.id k;
          ignore (Sim.schedule_at sim !t (fun () -> Wifi.transmit nic p)))
        frames;
      Sim.run sim;
      let levels = Wifi.tx_level_count nic in
      let st = { recent = []; level = levels - 1 } in
      let frozen = ref false and adapt = ref true in
      List.length !sent = List.length frames
      && List.for_all
           (fun ((p : Wifi.pkt), level, k) ->
             let start = Option.get p.air_start and stop = Option.get p.air_end in
             if !adapt && not !frozen then filter_fold_adapt st ~levels start;
             st.recent <- (stop, stop - start) :: st.recent;
             (match k with
             | 0 -> frozen := true
             | 1 -> frozen := false
             | 2 -> adapt := false
             | 3 -> adapt := true
             | _ -> ());
             level = st.level)
           (List.rev !sent))

let suite =
  [
    ("rail energy", `Quick, test_rail_energy);
    ("dvfs performance pins top", `Quick, test_dvfs_performance_pins_top);
    ("dvfs ondemand ramp/decay", `Quick, test_dvfs_ondemand_ramp_and_decay);
    ("dvfs freeze/thaw", `Quick, test_dvfs_freeze);
    ("dvfs set_opp clamps", `Quick, test_dvfs_set_opp);
    ("cpu power model", `Quick, test_cpu_power_model);
    ("cpu busy accounting", `Quick, test_cpu_busy_accounting);
    ("cpu idempotent busy", `Quick, test_cpu_idempotent_busy);
    ("accel executes commands", `Quick, test_accel_execution);
    ("accel overlap and queueing", `Quick, test_accel_overlap_and_queueing);
    ("accel power", `Quick, test_accel_power);
    ("accel autosuspend/resume", `Quick, test_accel_autosuspend_and_resume);
    ("accel frequency scales duration", `Quick, test_accel_freq_scales_duration);
    ("accel busy unit-seconds", `Quick, test_accel_busy_unit_seconds);
    ("wifi transmit and tail", `Quick, test_wifi_transmit_and_tail);
    ("wifi serializes the air", `Quick, test_wifi_serializes);
    ("wifi power-state roundtrip", `Quick, test_wifi_power_state_roundtrip);
    ("wifi mode adaptation", `Quick, test_wifi_mode_adaptation);
    ("wifi mac switch resets association", `Quick, test_wifi_mac_switch_resets_assoc);
    ("wifi virtual mac switch is free", `Quick, test_wifi_virtual_mac_switch_free);
    ( "wifi window bounded without adaptation",
      `Quick,
      test_wifi_window_bounded_without_adaptation );
    QCheck_alcotest.to_alcotest prop_wifi_window_matches_filter_fold;
  ]
