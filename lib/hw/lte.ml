open Psbox_engine

type state = Idle | Promoting | Dch | Fach

type pending = { p_app : int; p_bytes : int; p_done : unit -> unit }

(* The radio's link rate, per-state draw and RRC timers. *)
let rate_bps = 20.0 *. 1e6
let idle_w = 0.02
let fach_w = 0.4
let dch_w = 1.0
let promoting_w = 0.45
let promotion = Time.sec 2
let dch_tail = Time.sec 5
let fach_tail = Time.sec 12

type t = {
  sim : Sim.t;
  rail : Power_rail.t;
  mutable st : state;
  mutable on_air : bool;
  queue : pending Queue.t;
  mutable demote : Sim.handle;
  sent : (int, int) Hashtbl.t;
}

let create sim =
  {
    sim;
    rail = Power_rail.create sim ~name:"lte" ~idle_w;
    st = Idle;
    on_air = false;
    queue = Queue.create ();
    demote = Sim.none;
    sent = Hashtbl.create 4;
  }

let rail r = r.rail
let state r = r.st

let update_power r =
  let w =
    match r.st with
    | Idle -> idle_w
    | Promoting -> promoting_w
    | Dch -> dch_w
    | Fach -> fach_w
  in
  Power_rail.set_power r.rail w

let cancel_demote r =
  Sim.cancel r.sim r.demote;
  r.demote <- Sim.none

(* The network's demotion timers: DCH -> FACH -> Idle. The OS has no say. *)
let rec arm_demotion r =
  cancel_demote r;
  match r.st with
  | Dch ->
      r.demote <-
        Sim.schedule_after r.sim dch_tail (fun () ->
            if r.st = Dch && not r.on_air && Queue.is_empty r.queue then begin
              r.st <- Fach;
              update_power r;
              arm_demotion r
            end)
  | Fach ->
      r.demote <-
        Sim.schedule_after r.sim fach_tail (fun () ->
            if r.st = Fach then begin
              r.st <- Idle;
              update_power r
            end)
  | Idle | Promoting -> ()

let rec transmit_next r =
  if (not r.on_air) && r.st = Dch then
    match Queue.take_opt r.queue with
    | None -> arm_demotion r
    | Some p ->
        r.on_air <- true;
        let airtime =
          Time.of_sec_f (float_of_int (p.p_bytes * 8) /. rate_bps)
        in
        ignore
          (Sim.schedule_after r.sim (max 1 airtime) (fun () ->
               r.on_air <- false;
               let cur =
                 match Hashtbl.find_opt r.sent p.p_app with
                 | Some n -> n
                 | None -> 0
               in
               Hashtbl.replace r.sent p.p_app (cur + p.p_bytes);
               p.p_done ();
               transmit_next r))

let promote r =
  match r.st with
  | Dch -> transmit_next r
  | Promoting -> ()
  | Fach | Idle ->
      (* FACH promotes faster in reality; one promotion delay keeps the
         model simple and conservative *)
      cancel_demote r;
      r.st <- Promoting;
      update_power r;
      ignore
        (Sim.schedule_after r.sim promotion (fun () ->
             if r.st = Promoting then begin
               r.st <- Dch;
               update_power r;
               transmit_next r
             end))

let send r ~app ~bytes ~on_sent =
  Queue.push { p_app = app; p_bytes = bytes; p_done = on_sent } r.queue;
  promote r

let sent_bytes r ~app =
  match Hashtbl.find_opt r.sent app with Some n -> n | None -> 0
