open Psbox_engine
module Wifi = Psbox_hw.Wifi
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

let net_track = "kernel.net"

type phase = Normal | Drain_others | Serve | Drain_psbox

type pending = {
  p_pkt : Wifi.pkt;
  p_cb : Wifi.pkt -> unit;
  p_enqueued : Time.t;
}

type share_change = { at : Time.t; app : int; share : float }

(* Leaky-bucket rate gate in bytes/s: [g_next] is the earliest instant the
   app may put another frame on the air. *)
type gate = { mutable g_rate : float; mutable g_next : Time.t }

type t = {
  sim : Sim.t;
  nic : Wifi.t;
  queues : (int, pending Queue.t) Hashtbl.t;
  callbacks : (int, pending) Hashtbl.t; (* pkt id -> pending *)
  credit : (int, float) Hashtbl.t;
  sent : (int, int) Hashtbl.t;
  mutable vtime : float;
  window : int;
  mutable sandboxed : int option;
  mutable unsandboxing : bool;
  mutable phase : phase;
  mutable serve_started : Time.t;
  mutable serve_air_mark : float; (* NIC airtime at serve start *)
  mutable intervals : (Time.t * Time.t) list;
  mutable interval_open : Time.t option;
  mutable on_start : unit -> unit;
  mutable on_stop : unit -> unit;
  mutable lost_charged : int;
  mutable rx_held : pending list; (* deferred foreign RX, oldest last *)
  latencies : (int * float) Trace.events; (* stamped at dispatch *)
  pkt_log : Wifi.pkt Trace.events; (* completed frames *)
  share_bus : share_change Bus.t;
  gates : (int, gate) Hashtbl.t;
  mutable gate_pump : Sim.handle; (* armed wakeup, Sim.none when idle *)
  mutable gate_at : Time.t; (* instant gate_pump is aimed at *)
  (* telemetry handles, resolved once at create *)
  tm_tx : Tm.counter;
  tm_rx : Tm.counter;
  tm_tx_bytes : Tm.counter;
  tm_rx_bytes : Tm.counter;
  tm_lat : Tm.histogram;
  tm_gate_wakeups : Tm.counter;
}

let nic d = d.nic

let queue_of d app =
  match Hashtbl.find_opt d.queues app with
  | Some q -> q
  | None ->
      let q = Queue.create () in
      Hashtbl.add d.queues app q;
      q

let credit_of d app =
  match Hashtbl.find_opt d.credit app with
  | Some c -> c
  | None ->
      Hashtbl.add d.credit app d.vtime;
      d.vtime

let add_credit d app delta = Hashtbl.replace d.credit app (credit_of d app +. delta)
let credit d ~app = credit_of d app
let pending d ~app = Queue.length (queue_of d app)

let sent_bytes d ~app =
  match Hashtbl.find_opt d.sent app with Some n -> n | None -> 0

let backlogged d =
  Hashtbl.fold (fun app q acc -> if Queue.is_empty q then acc else app :: acc) d.queues []

let eligible d app =
  match Hashtbl.find_opt d.gates app with
  | Some g -> g.g_next <= Sim.now d.sim
  | None -> true

let charge_gate d app (pkt : Wifi.pkt) =
  match Hashtbl.find_opt d.gates app with
  | Some g when pkt.Wifi.dir = `Tx ->
      let now = Sim.now d.sim in
      let base = if g.g_next > now then g.g_next else now in
      g.g_next <- base + Time.of_sec_f (float_of_int pkt.Wifi.bytes /. g.g_rate)
  | Some _ | None -> ()

(* Rate-gated apps keep their queue and credit but sit out the pick until
   the gate reopens; the sandboxed app is exempt (balloons are psbox's own
   enforcement path). *)
let pick_app d =
  match
    List.filter (fun a -> d.sandboxed = Some a || eligible d a) (backlogged d)
  with
  | [] -> None
  | apps ->
      Some
        (List.fold_left
           (fun best app -> if credit_of d app < credit_of d best then app else best)
           (List.hd apps) (List.tl apps))

let publish_share d app =
  Bus.publish d.share_bus
    {
      at = Sim.now d.sim;
      app;
      share = float_of_int (Wifi.in_flight_of d.nic ~app);
    }

let should_yield d app =
  let others = List.filter (fun a -> a <> app) (backlogged d) in
  match others with
  | [] -> false
  | _ ->
      d.unsandboxing
      || (Queue.is_empty (queue_of d app) && Wifi.in_flight_of d.nic ~app = 0)
      || List.exists (fun a -> credit_of d a < credit_of d app) others

(* The virtual-time frontier: the least credit among apps that are still
   competing (backlogged in the driver or with frames in flight at the
   NIC). Wake placement uses it so idle periods don't bank credit, without
   robbing a backlogged-but-in-flight app of its entitlement. *)
let active_floor d =
  let floor = ref None in
  Hashtbl.iter
    (fun app q ->
      if (not (Queue.is_empty q)) || Wifi.in_flight_of d.nic ~app > 0 then begin
        let c = credit_of d app in
        match !floor with
        | Some f when f <= c -> ()
        | _ -> floor := Some c
      end)
    d.queues;
  !floor

let dispatch d app =
  (* advance the frontier before popping, while the dispatched app still
     counts as active *)
  (if d.phase <> Serve then
     match active_floor d with
     | Some f -> d.vtime <- Float.max d.vtime f
     | None -> ());
  let q = queue_of d app in
  let p = Queue.pop q in
  let lat = Time.to_us_f (Sim.now d.sim - p.p_enqueued) in
  Trace.emit d.latencies (Sim.now d.sim) (app, lat);
  Tm.observe d.tm_lat lat;
  Hashtbl.replace d.callbacks p.p_pkt.Wifi.id p;
  charge_gate d app p.p_pkt;
  Wifi.transmit d.nic p.p_pkt;
  publish_share d app

let rec pump d =
  match d.phase with
  | Drain_others | Drain_psbox -> ()
  | Serve -> (
      match d.sandboxed with
      | None ->
          d.phase <- Normal;
          pump d
      | Some app ->
          if should_yield d app then begin
            d.phase <- Drain_psbox;
            check_drain d
          end
          else if
            Wifi.in_flight d.nic < d.window
            && not (Queue.is_empty (queue_of d app))
          then begin
            dispatch d app;
            pump d
          end)
  | Normal ->
      if Wifi.in_flight d.nic < d.window then begin
        match pick_app d with
        | Some app when d.sandboxed = Some app ->
            d.phase <- Drain_others;
            check_drain d
        | Some app ->
            dispatch d app;
            pump d
        | None -> arm_gate_pump d
      end

(* Keep exactly one wakeup armed at the earliest gate reopening among
   gated backlogged apps, so a rate-capped app with quiet co-runners does
   not stall until the next unrelated NIC event. *)
and arm_gate_pump d =
  let next =
    List.fold_left
      (fun acc app ->
        match Hashtbl.find_opt d.gates app with
        | Some g when g.g_next > Sim.now d.sim -> (
            match acc with
            | Some t when t <= g.g_next -> acc
            | Some _ | None -> Some g.g_next)
        | Some _ | None -> acc)
      None (backlogged d)
  in
  match next with
  | None -> ()
  | Some t ->
      if Sim.is_none d.gate_pump || d.gate_at > t then begin
        Sim.cancel d.sim d.gate_pump;
        d.gate_at <- t;
        d.gate_pump <-
          Sim.schedule_at d.sim t (fun () ->
              d.gate_pump <- Sim.none;
              Tm.incr d.tm_gate_wakeups;
              pump d)
      end

and check_drain d =
  match d.phase with
  | Drain_others -> if Wifi.in_flight d.nic = 0 then enter_serve d
  | Drain_psbox -> if Wifi.in_flight d.nic = 0 then exit_serve d
  | Normal | Serve -> ()

and enter_serve d =
  d.phase <- Serve;
  d.serve_started <- Sim.now d.sim;
  d.serve_air_mark <- Wifi.airtime_seconds d.nic;
  d.interval_open <- Some (Sim.now d.sim);
  d.on_start ();
  pump d

and exit_serve d =
  let now = Sim.now d.sim in
  (match d.sandboxed with
  | Some app ->
      (* lost-opportunity penalty: airtime the balloon held exclusive but
         did not use, expressed in bytes — but only up to what the buffered
         foreign packets could actually have filled *)
      let queued_foreign =
        Hashtbl.fold
          (fun a q acc ->
            if a = app then acc
            else Queue.fold (fun acc p -> acc + p.p_pkt.Wifi.bytes) acc q)
          d.queues 0
      in
      let dur = Time.to_sec_f (now - d.serve_started) in
      let used = Wifi.airtime_seconds d.nic -. d.serve_air_mark in
      let wasted_bytes =
        int_of_float (Float.max 0.0 (dur -. used) *. Wifi.rate_bps d.nic /. 8.0)
      in
      let lost = min queued_foreign wasted_bytes in
      d.lost_charged <- d.lost_charged + lost;
      add_credit d app (float_of_int lost)
  | None -> ());
  (match d.interval_open with
  | Some t0 ->
      d.intervals <- (t0, now) :: d.intervals;
      (if Tt.recording () then
         let name =
           match d.sandboxed with
           | Some a -> "serve app" ^ string_of_int a
           | None -> "serve"
         in
         Tt.span ~track:net_track ~lane:"balloon" ~name ~start:t0 ~stop:now ());
      d.interval_open <- None
  | None -> ());
  d.on_stop ();
  d.phase <- Normal;
  if d.unsandboxing then begin
    d.sandboxed <- None;
    d.unsandboxing <- false
  end;
  (* release any deferred foreign RX *)
  let held = List.rev d.rx_held in
  d.rx_held <- [];
  List.iter
    (fun p ->
      Hashtbl.replace d.callbacks p.p_pkt.Wifi.id p;
      Wifi.transmit d.nic p.p_pkt)
    held;
  pump d

let on_nic_sent d pkt =
  Trace.emit d.pkt_log (Sim.now d.sim) pkt;
  (if pkt.Wifi.dir = `Tx then begin
     Tm.incr d.tm_tx;
     Tm.add d.tm_tx_bytes (float_of_int pkt.Wifi.bytes)
   end
   else begin
     Tm.incr d.tm_rx;
     Tm.add d.tm_rx_bytes (float_of_int pkt.Wifi.bytes)
   end);
  (if Tt.recording () then
     let name = if pkt.Wifi.dir = `Tx then "tx" else "rx" in
     let lane = "app" ^ string_of_int pkt.Wifi.app in
     let args = [ ("bytes", float_of_int pkt.Wifi.bytes) ] in
     match (pkt.Wifi.air_start, pkt.Wifi.air_end) with
     | Some t0, Some t1 ->
         Tt.span ~track:net_track ~lane ~name ~args ~start:t0 ~stop:t1 ()
     | _ -> Tt.instant ~track:net_track ~lane ~name ~args (Sim.now d.sim));
  publish_share d pkt.Wifi.app;
  (match Hashtbl.find_opt d.callbacks pkt.Wifi.id with
  | Some p ->
      Hashtbl.remove d.callbacks pkt.Wifi.id;
      if pkt.Wifi.dir = `Tx then begin
        add_credit d pkt.Wifi.app (float_of_int pkt.Wifi.bytes);
        Hashtbl.replace d.sent pkt.Wifi.app
          (sent_bytes d ~app:pkt.Wifi.app + pkt.Wifi.bytes)
      end;
      p.p_cb pkt
  | None -> ());
  check_drain d;
  pump d

let create sim nic ?(window = 1) () =
  let retention = Timeline.retention (Psbox_hw.Power_rail.timeline (Wifi.rail nic)) in
  let d =
    {
      sim;
      nic;
      queues = Hashtbl.create 8;
      callbacks = Hashtbl.create 32;
      credit = Hashtbl.create 8;
      sent = Hashtbl.create 8;
      vtime = 0.0;
      window;
      sandboxed = None;
      unsandboxing = false;
      phase = Normal;
      serve_started = Time.zero;
      serve_air_mark = 0.0;
      intervals = [];
      interval_open = None;
      on_start = (fun () -> ());
      on_stop = (fun () -> ());
      lost_charged = 0;
      rx_held = [];
      latencies = Trace.events ?retention ();
      pkt_log = Trace.events ?retention ();
      share_bus = Bus.create ();
      gates = Hashtbl.create 4;
      gate_pump = Sim.none;
      gate_at = Time.zero;
      tm_tx = Tm.counter "net.tx_packets";
      tm_rx = Tm.counter "net.rx_packets";
      tm_tx_bytes = Tm.counter "net.tx_bytes";
      tm_rx_bytes = Tm.counter "net.rx_bytes";
      tm_lat =
        Tm.histogram "net.dispatch_latency_us"
          ~edges:[| 10.; 100.; 1_000.; 10_000.; 100_000. |];
      tm_gate_wakeups = Tm.counter "net.gate_wakeups";
    }
  in
  Wifi.set_on_sent nic (fun pkt -> on_nic_sent d pkt);
  d

let share_bus d = d.share_bus

let set_rate d ~app limit =
  (match limit with
  | None -> Hashtbl.remove d.gates app
  | Some r ->
      let r = Float.max r 1e-9 in
      (match Hashtbl.find_opt d.gates app with
      | Some g -> g.g_rate <- r
      | None -> Hashtbl.add d.gates app { g_rate = r; g_next = Time.zero }));
  (if Tt.recording () then
     let now = Sim.now d.sim in
     match limit with
     | Some r ->
         Tt.instant ~track:net_track ~lane:"gate"
           ~name:("set-rate app" ^ string_of_int app)
           ~args:[ ("bytes_per_s", r) ]
           now
     | None ->
         Tt.instant ~track:net_track ~lane:"gate"
           ~name:("clear-rate app" ^ string_of_int app)
           now);
  pump d

let rate d ~app =
  match Hashtbl.find_opt d.gates app with
  | Some g -> Some g.g_rate
  | None -> None

let gated_until d ~app =
  match Hashtbl.find_opt d.gates app with
  | Some g when g.g_next > Sim.now d.sim -> Some g.g_next
  | Some _ | None -> None

let send d ~app ~socket ~bytes ~on_sent =
  let pkt = Wifi.packet ~app ~socket ~bytes ~dir:`Tx () in
  let p = { p_pkt = pkt; p_cb = on_sent; p_enqueued = Sim.now d.sim } in
  (* wake placement: no credit banking across idle periods *)
  let was_idle =
    Queue.is_empty (queue_of d app) && Wifi.in_flight_of d.nic ~app = 0
  in
  if was_idle then Hashtbl.replace d.credit app (Float.max (credit_of d app) d.vtime);
  Queue.push p (queue_of d app);
  pump d

let deliver_rx d ~app ~socket ~bytes ~on_rx =
  let pkt = Wifi.packet ~app ~socket ~bytes ~dir:`Rx () in
  let p = { p_pkt = pkt; p_cb = on_rx; p_enqueued = Sim.now d.sim } in
  if d.sandboxed = Some app then begin
    (* the sandboxed app's own reception: the NIC recognizes the balloon's
       (virtual) MAC, so the frame is handled inside the app's balloon and
       its power is metered for the psbox *)
    Queue.push p (queue_of d app);
    pump d
  end
  else begin
    let foreign_balloon =
      match d.sandboxed with
      | Some a -> d.interval_open <> None && a <> app
      | None -> false
    in
    if foreign_balloon && Wifi.virtual_macs d.nic then
      (* the NIC filters on the balloon's virtual MAC; hold the frame *)
      d.rx_held <- p :: d.rx_held
    else begin
      Hashtbl.replace d.callbacks pkt.Wifi.id p;
      Wifi.transmit d.nic pkt
    end
  end

let sandbox d ~app =
  (match d.sandboxed with
  | Some a when a <> app ->
      invalid_arg "Net_sched.sandbox: another app is already sandboxed"
  | Some _ | None -> ());
  d.sandboxed <- Some app;
  d.unsandboxing <- false;
  pump d

let unsandbox d =
  match d.sandboxed with
  | None -> ()
  | Some _ -> (
      match d.phase with
      | Normal ->
          d.sandboxed <- None;
          pump d
      | Drain_others ->
          d.sandboxed <- None;
          d.phase <- Normal;
          pump d
      | Serve ->
          d.unsandboxing <- true;
          d.phase <- Drain_psbox;
          check_drain d
      | Drain_psbox ->
          d.unsandboxing <- true;
          check_drain d)

let sandboxed d = d.sandboxed

let set_balloon_listener d ~on_start ~on_stop =
  d.on_start <- on_start;
  d.on_stop <- on_stop

let balloon_intervals d = List.rev d.intervals
let balloon_open d = d.interval_open <> None
let lost_bytes_charged d = d.lost_charged
let dispatch_latencies_us d = Trace.values d.latencies
let packet_log d = Trace.values d.pkt_log
