open Psbox_engine
module Wifi = Psbox_hw.Wifi
module Ts = Temporal_sched
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

let net_track = "kernel.net"

type t = {
  nic : Wifi.t;
  sched : Wifi.pkt Ts.t;
  sent : (int, int) Hashtbl.t;
  lost_charged : int ref;
  rx_held : (Wifi.pkt * (Wifi.pkt -> unit)) list ref;
      (* deferred foreign RX, newest first *)
}

let nic d = d.nic
let sched d = d.sched
let lost_bytes_charged d = !(d.lost_charged)

let sent_bytes d ~app =
  match Hashtbl.find_opt d.sent app with Some n -> n | None -> 0

let send d ~app ~socket ~bytes ~on_sent =
  let pkt = Wifi.packet ~app ~socket ~bytes ~dir:`Tx () in
  Ts.enqueue d.sched ~app pkt ~on_done:on_sent;
  Ts.pump d.sched

let deliver_rx d ~app ~socket ~bytes ~on_rx =
  let pkt = Wifi.packet ~app ~socket ~bytes ~dir:`Rx () in
  match Ts.sandboxed d.sched with
  | Some a when a = app ->
      (* the sandboxed app's own reception: the NIC recognizes the balloon's
         (virtual) MAC, so the frame is handled inside the app's balloon and
         its power is metered for the psbox *)
      Ts.enqueue d.sched ~app ~wake:false pkt ~on_done:on_rx;
      Ts.pump d.sched
  | Some _ when Ts.balloon_open d.sched && Wifi.virtual_macs d.nic ->
      (* the NIC filters on the balloon's virtual MAC; hold the frame *)
      d.rx_held := (pkt, on_rx) :: !(d.rx_held)
  | Some _ | None -> Ts.bypass d.sched pkt ~on_done:on_rx

let create sim nic =
  let sent = Hashtbl.create 8 in
  let lost_charged = ref 0 in
  let rx_held = ref [] in
  let serve_air_mark = ref 0.0 in
  let tm_tx = Tm.counter "net.tx_packets" in
  let tm_rx = Tm.counter "net.rx_packets" in
  let tm_tx_bytes = Tm.counter "net.tx_bytes" in
  let tm_rx_bytes = Tm.counter "net.rx_bytes" in
  let device =
    {
      Ts.in_flight = (fun () -> Wifi.in_flight nic);
      in_flight_of = (fun app -> Wifi.in_flight_of nic ~app);
      submit = Wifi.transmit nic;
      item_id = (fun pkt -> pkt.Wifi.id);
      (* only transmission is gated *)
      gate_span =
        (fun pkt rate ->
          match pkt.Wifi.dir with
          | `Tx -> Time.of_sec_f (float_of_int pkt.Wifi.bytes /. rate)
          | `Rx -> 0);
    }
  in
  let hooks =
    {
      Ts.on_drain = ignore;
      on_serve = (fun _ _ -> serve_air_mark := Wifi.airtime_seconds nic);
      on_serve_end =
        (fun s app ->
          (* lost-opportunity penalty: airtime the balloon held exclusive
             but did not use, expressed in bytes — but only up to what the
             buffered foreign packets could actually have filled *)
          let queued_foreign =
            Ts.fold_queued s
              (fun acc a pkt -> if a = app then acc else acc + pkt.Wifi.bytes)
              0
          in
          let dur = Time.to_sec_f (Sim.now sim - Ts.serve_started s) in
          let used = Wifi.airtime_seconds nic -. !serve_air_mark in
          let wasted_bytes =
            int_of_float (Float.max 0.0 (dur -. used) *. Wifi.rate_bps nic /. 8.0)
          in
          let lost = min queued_foreign wasted_bytes in
          lost_charged := !lost_charged + lost;
          Ts.bill s ~app (float_of_int lost));
      (* per-frame billing also covers the sandboxed app's own frames *)
      serve_credit = (fun s app -> Ts.credit s ~app);
      on_done =
        (fun s pkt ->
          if pkt.Wifi.dir = `Tx then begin
            let app = pkt.Wifi.app in
            Ts.bill s ~app (float_of_int pkt.Wifi.bytes);
            Hashtbl.replace sent app
              ((match Hashtbl.find_opt sent app with Some n -> n | None -> 0)
              + pkt.Wifi.bytes)
          end);
      on_close =
        (fun s ->
          (* release any deferred foreign RX *)
          let held = List.rev !rx_held in
          rx_held := [];
          List.iter (fun (pkt, on_rx) -> Ts.bypass s pkt ~on_done:on_rx) held);
    }
  in
  let sched =
    Ts.create sim ~rail:(Wifi.rail nic) ~window:1 ~wake_bonus:0.0 ~name:"net"
      ~rate_arg:"bytes_per_s" device hooks
  in
  Wifi.set_on_sent nic (fun pkt ->
      (let store = Sim.metrics sim in
       if pkt.Wifi.dir = `Tx then begin
         Tm.incr_in store tm_tx;
         Tm.add_in store tm_tx_bytes (float_of_int pkt.Wifi.bytes)
       end
       else begin
         Tm.incr_in store tm_rx;
         Tm.add_in store tm_rx_bytes (float_of_int pkt.Wifi.bytes)
       end);
      (if Tt.recording_in (Sim.tracer sim) then
         let name = if pkt.Wifi.dir = `Tx then "tx" else "rx" in
         let lane = "app" ^ string_of_int pkt.Wifi.app in
         let args = [ ("bytes", float_of_int pkt.Wifi.bytes) ] in
         match (pkt.Wifi.air_start, pkt.Wifi.air_end) with
         | Some t0, Some t1 ->
             Tt.span ~track:net_track ~lane ~name ~args ~start:t0 ~stop:t1 ()
         | _ -> Tt.instant ~track:net_track ~lane ~name ~args (Sim.now sim));
      Ts.complete sched ~app:pkt.Wifi.app pkt);
  { nic; sched; sent; lost_charged; rx_held }
