open Psbox_engine

type state = Off | Acquiring | Tracking

(* The receiver's draw while acquiring, tracking and off. *)
let acquire_w = 0.18
let track_w = 0.09
let off_w = 0.002

type t = {
  sim : Sim.t;
  retention : Time.span option;
  cold_start : Time.span;
  rail : Power_rail.t;
  mutable st : state;
  mutable fix_timer : Sim.handle;
  subs : (int, unit) Hashtbl.t;
  app_rails : (int, Power_rail.t) Hashtbl.t;
  mutable on_app_rail : Power_rail.t -> unit;
}

let create sim ?retention ?(cold_start = Time.sec 8) () =
  {
    sim;
    retention;
    cold_start;
    rail = Power_rail.create ?retention sim ~name:"gps" ~idle_w:off_w;
    st = Off;
    fix_timer = Sim.none;
    subs = Hashtbl.create 4;
    app_rails = Hashtbl.create 4;
    on_app_rail = (fun _ -> ());
  }

let rail g = g.rail
let state g = g.st
let subscribed g ~app = Hashtbl.mem g.subs app
let subscribers g = Hashtbl.length g.subs
let has_fix g = g.st = Tracking

let device_w g =
  match g.st with Off -> off_w | Acquiring -> acquire_w | Tracking -> track_w

let app_rail g ~app =
  if app < 0 then
    invalid_arg (Printf.sprintf "Gps.app_rail: app %d is negative" app);
  match Hashtbl.find_opt g.app_rails app with
  | Some r -> r
  | None ->
      let r =
        Power_rail.create ?retention:g.retention g.sim
          ~name:(Printf.sprintf "gps.app%d" app)
          ~idle_w:off_w
      in
      Hashtbl.add g.app_rails app r;
      g.on_app_rail r;
      r

let set_on_app_rail g f =
  g.on_app_rail <- f;
  Hashtbl.iter (fun _ r -> f r) g.app_rails

let update g =
  Power_rail.set_power g.rail (device_w g);
  Hashtbl.iter
    (fun app r ->
      let w = if subscribed g ~app then device_w g else off_w in
      Power_rail.set_power r w)
    g.app_rails

let subscribe g ~app =
  if app < 0 then
    invalid_arg (Printf.sprintf "Gps.subscribe: app %d is negative" app);
  if not (subscribed g ~app) then begin
    Hashtbl.replace g.subs app ();
    ignore (app_rail g ~app);
    (if g.st = Off then begin
       g.st <- Acquiring;
       g.fix_timer <-
         Sim.schedule_after g.sim g.cold_start (fun () ->
             g.fix_timer <- Sim.none;
             if g.st = Acquiring then begin
               g.st <- Tracking;
               update g
             end)
     end);
    update g
  end

let unsubscribe g ~app =
  if subscribed g ~app then begin
    Hashtbl.remove g.subs app;
    if Hashtbl.length g.subs = 0 then begin
      Sim.cancel g.sim g.fix_timer;
      g.fix_timer <- Sim.none;
      g.st <- Off
    end;
    update g
  end
