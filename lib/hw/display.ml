open Psbox_engine

type surface = { pixels : int; luminance : float }

type t = {
  sim : Sim.t;
  retention : Time.span option;
  width : int;
  height : int;
  base_w : float;
  w_per_mnit_pixel : float;
  rail : Power_rail.t;
  surfaces : (int, surface) Hashtbl.t;
  app_rails : (int, Power_rail.t) Hashtbl.t;
  mutable on_app_rail : Power_rail.t -> unit;
}

let create sim ?retention ?(width = 1920) ?(height = 1080)
    ?(base_w = 0.25) ?(w_per_mnit_pixel = 0.35) () =
  {
    sim;
    retention;
    width;
    height;
    base_w;
    w_per_mnit_pixel;
    rail = Power_rail.create ?retention sim ~name:"display" ~idle_w:0.0;
    surfaces = Hashtbl.create 8;
    app_rails = Hashtbl.create 8;
    on_app_rail = (fun _ -> ());
  }

let rail d = d.rail
let lit_pixels d = Hashtbl.fold (fun _ s acc -> acc + s.pixels) d.surfaces 0

(* Emission power of one surface. *)
let emission d s =
  d.w_per_mnit_pixel *. (float_of_int s.pixels /. 1e6) *. s.luminance

let app_rail d ~app =
  if app < 0 then
    invalid_arg (Printf.sprintf "Display.app_rail: app %d is negative" app);
  match Hashtbl.find_opt d.app_rails app with
  | Some r -> r
  | None ->
      let r =
        Power_rail.create ?retention:d.retention d.sim
          ~name:(Printf.sprintf "display.app%d" app)
          ~idle_w:0.0
      in
      Hashtbl.add d.app_rails app r;
      d.on_app_rail r;
      r

let set_on_app_rail d f =
  d.on_app_rail <- f;
  Hashtbl.iter (fun _ r -> f r) d.app_rails

(* Recompute the panel rail and every app rail: each pixel contributes
   independently, so attribution is exact. *)
let update d =
  let total_lit = lit_pixels d in
  let total =
    if total_lit = 0 then 0.0
    else
      Hashtbl.fold (fun _ s acc -> acc +. emission d s) d.surfaces d.base_w
  in
  Power_rail.set_power d.rail total;
  Hashtbl.iter
    (fun app r ->
      let w =
        match Hashtbl.find_opt d.surfaces app with
        | Some s when total_lit > 0 ->
            emission d s
            +. (d.base_w *. float_of_int s.pixels /. float_of_int total_lit)
        | Some _ | None -> 0.0
      in
      Power_rail.set_power r w)
    d.app_rails

let set_surface d ~app ~pixels ~luminance =
  if app < 0 then
    invalid_arg (Printf.sprintf "Display.set_surface: app %d is negative" app);
  if pixels < 0 || pixels > d.width * d.height then
    invalid_arg "Display.set_surface: pixels out of range";
  if luminance < 0.0 || luminance > 1.0 then
    invalid_arg "Display.set_surface: luminance out of range";
  Hashtbl.replace d.surfaces app { pixels; luminance };
  ignore (app_rail d ~app);
  update d

let remove_surface d ~app =
  Hashtbl.remove d.surfaces app;
  update d

let app_power_w d ~app = Power_rail.power (app_rail d ~app)
