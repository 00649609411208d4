(* Tests for the fair packet scheduler and its temporal balloons. *)
open Psbox_engine
module Wifi = Psbox_hw.Wifi
module Net_sched = Psbox_kernel.Net_sched
module Ts = Psbox_kernel.Temporal_sched

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let mk ?virtual_macs () =
  let sim = Sim.create () in
  let nic = Wifi.create sim ?virtual_macs () in
  let d = Net_sched.create sim nic in
  (sim, nic, d)

(* A saturating sender: resubmits a packet as soon as the last one went
   out. *)
let feeder d ~app ~bytes =
  let rec loop () =
    Net_sched.send d ~app ~socket:app ~bytes ~on_sent:(fun _ -> loop ())
  in
  loop ()

let test_send_completes () =
  let sim, _, d = mk () in
  let sent = ref 0 in
  Net_sched.send d ~app:1 ~socket:1 ~bytes:10_000 ~on_sent:(fun _ -> incr sent);
  Sim.run_until sim (Time.ms 50);
  check_int "sent" 1 !sent;
  check_int "bytes counted" 10_000 (Net_sched.sent_bytes d ~app:1)

let test_byte_fairness () =
  let sim, _, d = mk () in
  (* app 1 sends big frames, app 2 small ones: byte-fair, not frame-fair *)
  feeder d ~app:1 ~bytes:24_000;
  feeder d ~app:2 ~bytes:6_000;
  Sim.run_until sim (Time.sec 4);
  let b1 = Net_sched.sent_bytes d ~app:1 and b2 = Net_sched.sent_bytes d ~app:2 in
  check_bool
    (Printf.sprintf "byte-fair (%d vs %d)" b1 b2)
    true
    (abs (b1 - b2) * 5 < b1 + b2)

let test_balloon_exclusivity () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Sim.run_until sim (Time.ms 200);
  Ts.sandbox (Net_sched.sched d) ~app:1;
  Sim.run_until sim (Time.sec 2);
  let intervals = Ts.balloon_intervals (Net_sched.sched d) in
  check_bool "balloons formed" true (intervals <> []);
  let pkts = Ts.completed_items (Net_sched.sched d) in
  let foreign_inside =
    List.exists
      (fun (b0, b1) ->
        List.exists
          (fun p ->
            p.Wifi.app <> 1
            &&
            match (p.Wifi.air_start, p.Wifi.air_end) with
            | Some s, Some f -> min f b1 > max s b0
            | _ -> false)
          pkts)
      intervals
  in
  check_bool "no foreign frame on air inside a balloon" false foreign_inside

(* On a serialized channel, temporal balloons lose no airtime when both
   apps stay backlogged: the penalty must be (near) zero and the credits
   must track each other — no overcharging of the sandboxed app. *)
let test_lost_bytes_charged () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Ts.sandbox (Net_sched.sched d) ~app:1;
  Sim.run_until sim (Time.sec 1);
  check_bool "no phantom lost bytes" true
    (Net_sched.lost_bytes_charged d < 16_000);
  check_bool "credits track" true
    (Float.abs
       (Ts.credit (Net_sched.sched d) ~app:1 -. Ts.credit (Net_sched.sched d) ~app:2)
     < 32_000.0)

let test_sandboxed_absorbs_loss () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Sim.run_until sim (Time.sec 1);
  let b2_before = Net_sched.sent_bytes d ~app:2 in
  Ts.sandbox (Net_sched.sched d) ~app:1;
  Sim.run_until sim (Time.sec 3);
  let b2_rate_after = (Net_sched.sent_bytes d ~app:2 - b2_before) / 2 in
  check_bool
    (Printf.sprintf "unsandboxed keeps its share (%d vs %d)" b2_before b2_rate_after)
    true
    (float_of_int (abs (b2_rate_after - b2_before)) /. float_of_int b2_before < 0.05)

(* Foreign RX is deferred during balloons only with virtual MACs (the
   paper's §4.2/§5 limitation). *)
let test_rx_deferral_with_virtual_macs () =
  let sim, _, d = mk ~virtual_macs:true () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:2_000;
  Ts.sandbox (Net_sched.sched d) ~app:1;
  Sim.run_until sim (Time.ms 300);
  (* inject a foreign RX while a balloon is open; with vMACs it must not go
     on air before the balloon closes *)
  let rec wait_for_balloon () =
    if not (Ts.balloon_open (Net_sched.sched d)) then begin
      Sim.run_until sim (Sim.now sim + Time.ms 1);
      wait_for_balloon ()
    end
  in
  wait_for_balloon ();
  let balloon_was_open_at = Sim.now sim in
  let rx_done = ref None in
  Net_sched.deliver_rx d ~app:2 ~socket:2 ~bytes:1500 ~on_rx:(fun p ->
      rx_done := p.Wifi.air_start);
  Sim.run_until sim (Sim.now sim + Time.sec 1);
  (match !rx_done with
  | Some s ->
      let inside_that_balloon =
        List.exists
          (fun (b0, b1) -> balloon_was_open_at >= b0 && s >= b0 && s < b1)
          (Ts.balloon_intervals (Net_sched.sched d))
      in
      check_bool "foreign RX deferred out of the balloon" false inside_that_balloon
  | None -> Alcotest.fail "rx never delivered")

let test_rx_pollutes_without_virtual_macs () =
  let sim, _, d = mk ~virtual_macs:false () in
  feeder d ~app:1 ~bytes:8_000;
  Ts.sandbox (Net_sched.sched d) ~app:1;
  Sim.run_until sim (Time.ms 100);
  let rec wait_for_balloon () =
    if not (Ts.balloon_open (Net_sched.sched d)) then begin
      Sim.run_until sim (Sim.now sim + Time.ms 1);
      wait_for_balloon ()
    end
  in
  wait_for_balloon ();
  let rx_started = ref None in
  Net_sched.deliver_rx d ~app:2 ~socket:2 ~bytes:200 ~on_rx:(fun p ->
      rx_started := p.Wifi.air_start);
  Sim.run_until sim (Sim.now sim + Time.ms 500);
  check_bool "foreign RX was received (not deferred)" true (!rx_started <> None)

let test_own_rx_metered_in_balloon () =
  let sim, _, d = mk () in
  feeder d ~app:1 ~bytes:8_000;
  feeder d ~app:2 ~bytes:8_000;
  Ts.sandbox (Net_sched.sched d) ~app:1;
  Sim.run_until sim (Time.ms 100);
  let rx = ref None in
  Net_sched.deliver_rx d ~app:1 ~socket:1 ~bytes:3_000 ~on_rx:(fun p ->
      rx := p.Wifi.air_start);
  Sim.run_until sim (Sim.now sim + Time.sec 1);
  (match !rx with
  | Some s ->
      let inside =
        List.exists
          (fun (b0, b1) -> s >= b0 && s <= b1)
          (Ts.balloon_intervals (Net_sched.sched d))
      in
      check_bool "own RX lands inside a balloon" true inside
  | None -> Alcotest.fail "own rx never delivered")

(* A rate-gated co-runner with less credit than the sandboxed app must not
   make the balloon yield before its gate reopens (the balloon would
   reopen at once and spin at one instant). *)
let test_gated_corunner_no_livelock () =
  let sim, _, d = mk () in
  let s = Net_sched.sched d in
  let sent = ref 0 in
  let send app =
    Net_sched.send d ~app ~socket:app ~bytes:5_000 ~on_sent:(fun _ -> incr sent)
  in
  Ts.set_rate s ~app:3 (Some 1e5);
  send 3;
  send 3;
  ignore
    (Sim.schedule_at sim (Time.ms 1) (fun () ->
         Ts.sandbox s ~app:1;
         for _ = 1 to 4 do send 1 done));
  Sim.run_until sim (Time.ms 200);
  check_int "all frames sent" 6 !sent;
  check_bool "balloons formed" true (Ts.balloon_intervals s <> [])

let suite =
  [
    ("send completes", `Quick, test_send_completes);
    ("byte fairness", `Quick, test_byte_fairness);
    ("balloon exclusivity", `Quick, test_balloon_exclusivity);
    ("lost bytes charged", `Quick, test_lost_bytes_charged);
    ("unsandboxed keeps its share", `Quick, test_sandboxed_absorbs_loss);
    ("rx deferral with virtual MACs", `Quick, test_rx_deferral_with_virtual_macs);
    ("rx not deferred without virtual MACs", `Quick, test_rx_pollutes_without_virtual_macs);
    ("own rx metered in balloon", `Quick, test_own_rx_metered_in_balloon);
    ( "gated co-runner does not livelock a balloon",
      `Quick,
      test_gated_corunner_no_livelock );
  ]
