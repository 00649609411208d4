open Psbox_engine

type pkt = {
  id : int;
  app : int;
  socket : int;
  bytes : int;
  dir : [ `Tx | `Rx ];
  mutable queued_at : Time.t;
  mutable air_start : Time.t option;
  mutable air_end : Time.t option;
}

(* Domain-local, like [Task.next_tid]: concurrent device simulations never
   share a counter. *)
let next_pkt_id = Domain.DLS.new_key (fun () -> ref 0)

let packet ~app ~socket ~bytes ?(dir = `Tx) () =
  let next = Domain.DLS.get next_pkt_id in
  incr next;
  {
    id = !next;
    app;
    socket;
    bytes;
    dir;
    queued_at = Time.zero;
    air_start = None;
    air_end = None;
  }

type power_state = { tx_level : int; awake : bool }

(* Mode adaptation looks at the airtime of the frames that ended in the
   trailing [adapt_window]: a ring of airtimes stamped with their frame's
   end, beside their running total. *)
let adapt_window = Time.ms 200

type t = {
  sim : Sim.t;
  rail : Power_rail.t;
  rate_bps : float;
  overhead : Time.span;
  tail : Time.span;
  ps_w : float;
  awake_w : float;
  tx_levels : float array;
  rx_w : float;
  vmacs : bool;
  reassoc_delay : Time.span;
  mutable level : int;
  mutable awake : bool;
  mutable on_air : pkt option;
  mutable queue : pkt list; (* FIFO, head oldest *)
  mutable on_sent : pkt -> unit;
  mutable tail_timer : Sim.handle;
  mutable airtime_accum : Time.span;
  mutable air_since : Time.t;
  (* power-state residency counters (for counter-driven power models):
     time awake, on-air time per TX level, on-air RX time *)
  mutable awake_accum : Time.span;
  mutable awake_since : Time.t;
  tx_air_by_level : Time.span array;
  mutable rx_air_accum : Time.span;
  mutable on_air_level : int; (* TX level when the on-air frame started *)
  mutable mac : int;
  mutable associated : bool;
  mutable mode_adapt : bool;
  mutable mode_frozen : bool;
  recent_air : Time.span Ring.t;
  mutable recent_air_sum : Time.span;
}

let air_expire nic now =
  let w = nic.recent_air in
  while Ring.length w > 0 && now - Ring.oldest_stamp w >= adapt_window do
    nic.recent_air_sum <- nic.recent_air_sum - Ring.oldest w;
    Ring.drop_oldest w
  done

let update_power nic =
  let w =
    if not nic.awake then nic.ps_w
    else
      match nic.on_air with
      | None -> nic.awake_w
      | Some p -> (
          match p.dir with
          | `Tx -> nic.awake_w +. nic.tx_levels.(nic.level)
          | `Rx -> nic.awake_w +. nic.rx_w)
  in
  Power_rail.set_power nic.rail w

let set_awake_state nic b =
  if nic.awake <> b then begin
    let now = Sim.now nic.sim in
    if b then nic.awake_since <- now
    else nic.awake_accum <- nic.awake_accum + (now - nic.awake_since);
    nic.awake <- b
  end

let cancel_tail nic =
  Sim.cancel nic.sim nic.tail_timer;
  nic.tail_timer <- Sim.none

let arm_tail nic =
  cancel_tail nic;
  nic.tail_timer <-
    Sim.schedule_after nic.sim nic.tail (fun () ->
        nic.tail_timer <- Sim.none;
        if nic.on_air = None && nic.queue = [] then begin
          set_awake_state nic false;
          update_power nic
        end)

let wake nic =
  cancel_tail nic;
  if not nic.awake then begin
    set_awake_state nic true;
    update_power nic
  end

(* Mode adaptation: utilization of the channel over the trailing window
   decides the transmission mode (TX level). *)
let adapt_mode nic =
  if nic.mode_adapt && not nic.mode_frozen then begin
    air_expire nic (Sim.now nic.sim);
    let util = float_of_int nic.recent_air_sum /. float_of_int adapt_window in
    let top = Array.length nic.tx_levels - 1 in
    let level =
      if util > 0.5 then top
      else if util > 0.15 then min 1 top
      else 0
    in
    if level <> nic.level then begin
      nic.level <- level;
      update_power nic
    end
  end

let rec send_next nic =
  if nic.on_air = None && nic.associated then
    match nic.queue with
    | [] -> ()
    | p :: rest ->
        nic.queue <- rest;
        wake nic;
        let now = Sim.now nic.sim in
        p.air_start <- Some now;
        nic.on_air <- Some p;
        nic.air_since <- now;
        adapt_mode nic;
        nic.on_air_level <- nic.level;
        update_power nic;
        let airtime =
          Time.of_sec_f (float_of_int (p.bytes * 8) /. nic.rate_bps) + nic.overhead
        in
        ignore
          (Sim.schedule_after nic.sim (max 1 airtime) (fun () ->
               let now = Sim.now nic.sim in
               p.air_end <- Some now;
               nic.on_air <- None;
               let air = now - nic.air_since in
               nic.airtime_accum <- nic.airtime_accum + air;
               (match p.dir with
               | `Tx ->
                   nic.tx_air_by_level.(nic.on_air_level) <-
                     nic.tx_air_by_level.(nic.on_air_level) + air
               | `Rx -> nic.rx_air_accum <- nic.rx_air_accum + air);
               air_expire nic now;
               Ring.push nic.recent_air now air;
               nic.recent_air_sum <- nic.recent_air_sum + air;
               update_power nic;
               arm_tail nic;
               nic.on_sent p;
               send_next nic))

let create sim ?retention ?(tail = Time.ms 80) ?(virtual_macs = false) () =
  let tx_levels = [| 0.5; 0.7; 0.9 |] in
  let nic =
    {
      sim;
      rail = Power_rail.create ?retention sim ~name:"wifi" ~idle_w:0.03;
      rate_bps = 40.0 *. 1e6;
      overhead = Time.us 200;
      tail;
      ps_w = 0.03;
      awake_w = 0.25;
      tx_levels;
      rx_w = 0.45;
      vmacs = virtual_macs;
      reassoc_delay = Time.ms 150;
      level = Array.length tx_levels - 1;
      awake = false;
      on_air = None;
      queue = [];
      on_sent = (fun _ -> ());
      tail_timer = Sim.none;
      airtime_accum = 0;
      air_since = Time.zero;
      awake_accum = 0;
      awake_since = Time.zero;
      tx_air_by_level = Array.make (Array.length tx_levels) 0;
      rx_air_accum = 0;
      on_air_level = 0;
      mac = 0;
      associated = true;
      mode_adapt = true;
      mode_frozen = false;
      recent_air = Ring.create ();
      recent_air_sum = 0;
    }
  in
  update_power nic;
  nic

let rail nic = nic.rail
let rate_bps nic = nic.rate_bps
let tail nic = nic.tail
let awake_w nic = nic.awake_w
let ps_w nic = nic.ps_w
let set_mode_adapt nic b = nic.mode_adapt <- b
let freeze_mode nic = nic.mode_frozen <- true
let thaw_mode nic = nic.mode_frozen <- false

let transmit nic p =
  p.queued_at <- Sim.now nic.sim;
  nic.queue <- nic.queue @ [ p ];
  send_next nic

let set_on_sent nic f = nic.on_sent <- f

let in_flight nic =
  List.length nic.queue + match nic.on_air with Some _ -> 1 | None -> 0

let in_flight_of nic ~app =
  List.length (List.filter (fun p -> p.app = app) nic.queue)
  + match nic.on_air with Some p when p.app = app -> 1 | Some _ | None -> 0

let airtime_seconds nic =
  let extra =
    match nic.on_air with
    | Some _ -> Sim.now nic.sim - nic.air_since
    | None -> 0
  in
  Time.to_sec_f (nic.airtime_accum + extra)

let awake nic = nic.awake

let awake_seconds nic =
  let extra = if nic.awake then Sim.now nic.sim - nic.awake_since else 0 in
  Time.to_sec_f (nic.awake_accum + extra)

let tx_level_count nic = Array.length nic.tx_levels

let tx_airtime_by_level_seconds nic =
  Array.init (Array.length nic.tx_levels) (fun i ->
      let extra =
        match nic.on_air with
        | Some p when p.dir = `Tx && nic.on_air_level = i ->
            Sim.now nic.sim - nic.air_since
        | _ -> 0
      in
      Time.to_sec_f (nic.tx_air_by_level.(i) + extra))

let rx_airtime_seconds nic =
  let extra =
    match nic.on_air with
    | Some p when p.dir = `Rx -> Sim.now nic.sim - nic.air_since
    | _ -> 0
  in
  Time.to_sec_f (nic.rx_air_accum + extra)

let tx_level nic = nic.level

let set_tx_level nic level =
  if level < 0 || level >= Array.length nic.tx_levels then
    invalid_arg "Wifi.set_tx_level: bad level";
  nic.level <- level;
  update_power nic

let power_state nic = { tx_level = nic.level; awake = nic.awake }

let restore_power_state nic st =
  set_tx_level nic st.tx_level;
  if st.awake then begin
    wake nic;
    if nic.on_air = None then arm_tail nic
  end
  else if nic.on_air = None && nic.queue = [] then begin
    cancel_tail nic;
    set_awake_state nic false;
    update_power nic
  end

let virtual_macs nic = nic.vmacs

let switch_mac nic ~mac =
  if mac <> nic.mac then begin
    nic.mac <- mac;
    if not nic.vmacs then begin
      (* MAC switch resets the chip's association with the base station. *)
      nic.associated <- false;
      ignore
        (Sim.schedule_after nic.sim nic.reassoc_delay (fun () ->
             nic.associated <- true;
             send_next nic))
    end
  end

let associated nic = nic.associated
