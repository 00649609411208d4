open Psbox_engine

type draws = { mutable before_w : float; mutable after_w : float }

type transition = {
  rail_name : string;
  mutable at : Time.t;
  draws : draws;
}

type t = {
  sim : Sim.t;
  name : string;
  idle_w : float;
  floor_w : float;
  timeline : Timeline.t;
  bus : transition Bus.t;
  tr : transition; (* the one record [bus] carries *)
  mutable cur_w : float;
}

let create ?retention ?floor_w sim ~name ~idle_w =
  let floor_w = match floor_w with Some f -> f | None -> idle_w in
  if floor_w > idle_w then invalid_arg "Power_rail.create: floor above idle";
  {
    sim;
    name;
    idle_w;
    floor_w;
    timeline = Timeline.create ~initial:idle_w ?retention ();
    bus = Bus.create ();
    tr =
      {
        rail_name = name;
        at = Time.zero;
        draws = { before_w = idle_w; after_w = idle_w };
      };
    cur_w = idle_w;
  }

let name rail = rail.name
let idle_w rail = rail.idle_w
let floor_w rail = rail.floor_w

let set_power rail w =
  let before = rail.cur_w in
  Timeline.set rail.timeline (Sim.now rail.sim) w;
  rail.cur_w <- w;
  if w <> before then begin
    let tr = rail.tr in
    tr.at <- Sim.now rail.sim;
    tr.draws.before_w <- before;
    tr.draws.after_w <- w;
    Bus.publish rail.bus tr
  end

let power rail = rail.cur_w
let energy_j rail ~from ~until = Timeline.integrate rail.timeline from until
let timeline rail = rail.timeline
let transitions rail = rail.bus
