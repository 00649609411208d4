open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Power_vstate = Psbox_kernel.Power_vstate
module Power_rail = Psbox_hw.Power_rail
module Sample = Psbox_meter.Sample
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing
module Audit = Psbox_audit.Audit

type target = Cpu | Gpu | Dsp | Wifi | Display | Gps

let target_label = function
  | Cpu -> "cpu"
  | Gpu -> "gpu"
  | Dsp -> "dsp"
  | Wifi -> "wifi"
  | Display -> "display"
  | Gps -> "gps"

let psbox_track = "core.psbox"
let m_enters = Tm.counter "psbox.enters"
let m_leaves = Tm.counter "psbox.leaves"
let m_balloons = Tm.counter "psbox.balloons"

exception Not_in_psbox

(* What the virtual meter reports outside the psbox's balloons: flat idle
   power for CPU/accelerators; for the NIC, the app's *virtual* power-save
   machine — awake for its own tail after each balloon, then power-save. *)
type idle_model =
  | Flat of float
  | Nic_tail of { awake_w : float; ps_w : float; tail : Time.span }

type binding = {
  b_target : target;
  b_rail : Power_rail.t;
  b_idle : idle_model;
  b_vstate : Power_vstate.t option;
      (* devices with entanglement-free attribution (display, GPS) need no
         state virtualization *)
  mutable b_closed : (Time.t * Time.t) list; (* newest first *)
  mutable b_open : Time.t option;
  mutable b_attach : unit -> unit;
  mutable b_detach : unit -> unit;
}

(* Virtual idle power at [t], given the end of the psbox's most recent
   balloon before [t] (if any). *)
let idle_power_at model ~last_end t =
  match model with
  | Flat w -> w
  | Nic_tail { awake_w; ps_w; tail } -> (
      match last_end with
      | Some t_end when t - t_end <= tail -> awake_w
      | Some _ | None -> ps_w)

(* Virtual idle energy over a gap [g0, g1] that begins right where a
   balloon ended iff [after_balloon]. *)
let idle_energy_j model ~after_balloon g0 g1 =
  let dt = Time.to_sec_f (g1 - g0) in
  match model with
  | Flat w -> w *. dt
  | Nic_tail { awake_w; ps_w; tail } ->
      if after_balloon then begin
        let tail_s = Time.to_sec_f (min tail (g1 - g0)) in
        (awake_w *. tail_s) +. (ps_w *. (dt -. tail_s))
      end
      else ps_w *. dt

type t = {
  sys : System.t;
  p_app : int;
  bindings : binding list;
  mutable inside : bool;
  mutable entered_at : Time.t;
  mutable blame_at_enter : (Audit.cause * float) list;
  mutable last_stay_blame : (string * float) list;
}

(* One psbox per (system, app, target). The (app, target) pairs in use are
   kept per domain in an ephemeron table keyed by the system, so a machine
   whose psboxes were never destroyed stays collectable. *)
module Machines = Ephemeron.K1.Make (struct
  type t = System.t

  let equal = ( == )
  let hash = System.uid
end)

let boxes : (int * target) list Machines.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> Machines.create 8)

let boxes_of sys =
  Option.value ~default:[] (Machines.find_opt (Domain.DLS.get boxes) sys)

let registered sys app target = List.mem (app, target) (boxes_of sys)

let register sys app target =
  Machines.replace (Domain.DLS.get boxes) sys ((app, target) :: boxes_of sys)

let unregister sys app target =
  let tbl = Domain.DLS.get boxes in
  match List.filter (( <> ) (app, target)) (boxes_of sys) with
  | [] -> Machines.remove tbl sys
  | rest -> Machines.replace tbl sys rest

let now psbox = Sim.now (System.sim psbox.sys)

let record_start binding t = binding.b_open <- Some t

let record_stop binding t =
  match binding.b_open with
  | Some t0 ->
      binding.b_closed <- (t0, t) :: binding.b_closed;
      Tm.incr m_balloons;
      if Tt.recording () then
        Tt.span ~track:psbox_track ~lane:(target_label binding.b_target)
          ~name:"balloon" ~start:t0 ~stop:t ();
      binding.b_open <- None
  | None -> ()

let make_binding sys ~app ~virtualize target =
  let sim = System.sim sys in
  let vs_start vstate () = if virtualize then Power_vstate.on_balloon_start vstate in
  let vs_stop vstate () = if virtualize then Power_vstate.on_balloon_stop vstate in
  (* Display and GPS power is entanglement-free (§7): the per-app rail is
     already an exact, insulated view, so the binding's "balloon" is simply
     the whole stay inside the box. *)
  let direct_view ~target ~rail ~idle =
    let binding =
      {
        b_target = target;
        b_rail = rail;
        b_idle = Flat idle;
        b_vstate = None;
        b_closed = [];
        b_open = None;
        b_attach = (fun () -> ());
        b_detach = (fun () -> ());
      }
    in
    binding.b_attach <- (fun () -> record_start binding (Sim.now sim));
    binding.b_detach <- (fun () -> record_stop binding (Sim.now sim));
    binding
  in
  match target with
  | Cpu ->
      let cpu = System.cpu sys in
      let vstate = Power_vstate.create sim (Power_vstate.Cpu_dev cpu) in
      let binding =
        {
          b_target = Cpu;
          b_rail = Psbox_hw.Cpu.rail cpu;
          b_idle = Flat (Power_rail.idle_w (Psbox_hw.Cpu.rail cpu));
          b_vstate = Some vstate;
          b_closed = [];
          b_open = None;
          b_attach = (fun () -> ());
          b_detach = (fun () -> ());
        }
      in
      let balloon = ref None in
      binding.b_attach <-
        (fun () ->
          let b = Smp.sandbox (System.smp sys) ~app in
          Smp.set_balloon_listener b
            ~on_start:(fun () ->
              vs_start vstate ();
              record_start binding (Sim.now sim))
            ~on_stop:(fun () ->
              record_stop binding (Sim.now sim);
              vs_stop vstate ());
          balloon := Some b);
      binding.b_detach <-
        (fun () ->
          match !balloon with
          | Some b ->
              Smp.unsandbox (System.smp sys) b;
              balloon := None
          | None -> ());
      binding
  | Gpu | Dsp ->
      let driver = if target = Gpu then System.gpu sys else System.dsp sys in
      let dev = Accel_driver.device driver in
      let vstate = Power_vstate.create sim (Power_vstate.Accel_dev dev) in
      let binding =
        {
          b_target = target;
          b_rail = Psbox_hw.Accel.rail dev;
          b_idle = Flat (Power_rail.idle_w (Psbox_hw.Accel.rail dev));
          b_vstate = Some vstate;
          b_closed = [];
          b_open = None;
          b_attach = (fun () -> ());
          b_detach = (fun () -> ());
        }
      in
      binding.b_attach <-
        (fun () ->
          Accel_driver.set_balloon_listener driver
            ~on_start:(fun () ->
              vs_start vstate ();
              record_start binding (Sim.now sim))
            ~on_stop:(fun () ->
              record_stop binding (Sim.now sim);
              vs_stop vstate ());
          Accel_driver.sandbox driver ~app);
      binding.b_detach <- (fun () -> Accel_driver.unsandbox driver);
      binding
  | Wifi ->
      let netd = System.net sys in
      let nic = Net_sched.nic netd in
      let vstate = Power_vstate.create sim (Power_vstate.Wifi_dev nic) in
      let binding =
        {
          b_target = Wifi;
          b_rail = Psbox_hw.Wifi.rail nic;
          b_idle =
            Nic_tail
              {
                awake_w = Psbox_hw.Wifi.awake_w nic;
                ps_w = Psbox_hw.Wifi.ps_w nic;
                tail = Psbox_hw.Wifi.tail nic;
              };
          b_vstate = Some vstate;
          b_closed = [];
          b_open = None;
          b_attach = (fun () -> ());
          b_detach = (fun () -> ());
        }
      in
      binding.b_attach <-
        (fun () ->
          Net_sched.set_balloon_listener netd
            ~on_start:(fun () ->
              vs_start vstate ();
              record_start binding (Sim.now sim))
            ~on_stop:(fun () ->
              record_stop binding (Sim.now sim);
              vs_stop vstate ());
          Net_sched.sandbox netd ~app);
      binding.b_detach <- (fun () -> Net_sched.unsandbox netd);
      binding
  | Display ->
      let d = System.display sys in
      direct_view ~target:Display
        ~rail:(Psbox_hw.Display.app_rail d ~app)
        ~idle:0.0
  | Gps ->
      let g = System.gps sys in
      direct_view ~target:Gps
        ~rail:(Psbox_hw.Gps.app_rail g ~app)
        ~idle:(Power_rail.idle_w (Psbox_hw.Gps.app_rail g ~app))

let create ?(virtualize_power_state = true) sys ~app ~hw =
  if hw = [] then invalid_arg "Psbox.create: empty hardware set";
  let hw = List.sort_uniq compare hw in
  List.iter
    (fun target ->
      if registered sys app target then
        invalid_arg "Psbox.create: app already has a psbox on this target";
      match target with
      | Gpu when not (System.has_gpu sys) -> invalid_arg "Psbox.create: no GPU"
      | Dsp when not (System.has_dsp sys) -> invalid_arg "Psbox.create: no DSP"
      | Wifi when not (System.has_wifi sys) ->
          invalid_arg "Psbox.create: no WiFi"
      | Display when not (System.has_display sys) ->
          invalid_arg "Psbox.create: no display"
      | Gps when not (System.has_gps sys) ->
          invalid_arg "Psbox.create: no GPS"
      | Cpu | Gpu | Dsp | Wifi | Display | Gps -> ())
    hw;
  List.iter (fun target -> register sys app target) hw;
  let bindings =
    List.map (make_binding sys ~app ~virtualize:virtualize_power_state) hw
  in
  {
    sys;
    p_app = app;
    bindings;
    inside = false;
    entered_at = Time.zero;
    blame_at_enter = [];
    last_stay_blame = [];
  }

let enter psbox =
  if not psbox.inside then begin
    psbox.inside <- true;
    psbox.entered_at <- now psbox;
    (* snapshot the joule-audit blame matrix so [leave] can report the
       per-cause energy this stay was billed for *)
    psbox.blame_at_enter <-
      (match Audit.lookup psbox.sys with
      | Some a -> Audit.app_blame a ~app:psbox.p_app
      | None -> []);
    Tm.incr m_enters;
    if Tt.recording () then
      Tt.instant ~track:psbox_track
        ~lane:("app" ^ string_of_int psbox.p_app)
        ~name:"enter" (now psbox);
    List.iter (fun b -> b.b_attach ()) psbox.bindings
  end

let leave psbox =
  if psbox.inside then begin
    List.iter (fun b -> b.b_detach ()) psbox.bindings;
    psbox.inside <- false;
    (match Audit.lookup psbox.sys with
    | Some a ->
        let after = Audit.app_blame a ~app:psbox.p_app in
        let get l c =
          match List.assoc_opt c l with Some j -> j | None -> 0.0
        in
        psbox.last_stay_blame <-
          List.filter_map
            (fun c ->
              let d = get after c -. get psbox.blame_at_enter c in
              if d <> 0.0 then Some (Audit.cause_label c, d) else None)
            [
              Audit.Active;
              Audit.Shared_rail;
              Audit.Lingering;
              Audit.Dvfs_transition;
              Audit.Idle_floor;
            ]
    | None -> ());
    Tm.incr m_leaves;
    if Tt.recording () then
      Tt.instant ~track:psbox_track
        ~lane:("app" ^ string_of_int psbox.p_app)
        ~name:"leave" (now psbox)
  end

let inside psbox = psbox.inside
let stay_blame psbox = psbox.last_stay_blame
let app psbox = psbox.p_app
let targets psbox = List.map (fun b -> b.b_target) psbox.bindings

(* Balloon intervals of one binding clipped to [from, until], oldest
   first. *)
let clipped_intervals binding ~from ~until =
  let all =
    (match binding.b_open with Some t0 -> [ (t0, until) ] | None -> [])
    @ binding.b_closed
  in
  List.rev all
  |> List.filter_map (fun (t0, t1) ->
         let t0 = max t0 from and t1 = min t1 until in
         if t1 > t0 then Some (t0, t1) else None)

(* Energy of one binding over a window under the virtual meter's masking
   rules: rail power (clamped up to the suspend floor when the device is
   off/suspended) inside balloons; the virtual idle model outside. *)
let masked_energy_j binding ~from ~until =
  let floor_w = Power_rail.idle_w binding.b_rail in
  let tl = Power_rail.timeline binding.b_rail in
  let intervals = clipped_intervals binding ~from ~until in
  let balloon_j =
    List.fold_left
      (fun acc (t0, t1) ->
        Timeline.fold_intervals tl ~from:t0 ~until:t1 ~init:acc
          ~f:(fun acc s e v ->
            acc +. (Float.max v floor_w *. Time.to_sec_f (e - s))))
      0.0 intervals
  in
  (* walk the gaps between balloons with the virtual idle model *)
  let rec gaps acc cursor after_balloon = function
    | [] ->
        if until > cursor then
          acc +. idle_energy_j binding.b_idle ~after_balloon cursor until
        else acc
    | (t0, t1) :: rest ->
        let acc =
          if t0 > cursor then
            acc +. idle_energy_j binding.b_idle ~after_balloon cursor t0
          else acc
        in
        gaps acc t1 true rest
  in
  balloon_j +. gaps 0.0 from false intervals

let read_mj psbox =
  if not psbox.inside then raise Not_in_psbox;
  let from = psbox.entered_at and until = now psbox in
  List.fold_left
    (fun acc b -> acc +. masked_energy_j b ~from ~until)
    0.0 psbox.bindings
  *. 1e3

let samples_of_binding ?(period = Time.us 10) binding ~from ~until =
  let floor_w = Power_rail.idle_w binding.b_rail in
  let tl = Power_rail.timeline binding.b_rail in
  let intervals = ref (clipped_intervals binding ~from ~until) in
  let last_end = ref None in
  let n = ((until - from) / period) + 1 in
  Array.init (max n 0) (fun k ->
      let t = from + (k * period) in
      (* advance past intervals that ended before t *)
      let rec skip () =
        match !intervals with
        | (_, t1) :: rest when t1 < t ->
            last_end := Some t1;
            intervals := rest;
            skip ()
        | _ -> ()
      in
      skip ();
      let in_balloon =
        match !intervals with (t0, t1) :: _ -> t >= t0 && t <= t1 | [] -> false
      in
      let w =
        if in_balloon then Float.max (Timeline.value_at tl t) floor_w
        else idle_power_at binding.b_idle ~last_end:!last_end t
      in
      Sample.make t w)

let sample_target ?period psbox target =
  if not psbox.inside then raise Not_in_psbox;
  match List.find_opt (fun b -> b.b_target = target) psbox.bindings with
  | None -> invalid_arg "Psbox.sample_target: target not bound"
  | Some b ->
      samples_of_binding ?period b ~from:psbox.entered_at ~until:(now psbox)

let sample ?(period = Time.us 10) psbox =
  if not psbox.inside then raise Not_in_psbox;
  let from = psbox.entered_at and until = now psbox in
  let per_binding =
    List.map (fun b -> samples_of_binding ~period b ~from ~until) psbox.bindings
  in
  match per_binding with
  | [] -> [||]
  | first :: rest ->
      Array.mapi
        (fun i s ->
          let watts =
            List.fold_left (fun acc arr -> acc +. arr.(i).Sample.watts) s.Sample.watts rest
          in
          Sample.make s.Sample.time watts)
        first

let exclusive_us psbox =
  let from = psbox.entered_at and until = now psbox in
  List.fold_left
    (fun acc b ->
      acc
      +. List.fold_left
           (fun acc (t0, t1) -> acc +. Time.to_us_f (t1 - t0))
           0.0
           (clipped_intervals b ~from ~until))
    0.0 psbox.bindings

let exclusive_intervals psbox =
  let from = psbox.entered_at and until = now psbox in
  List.concat_map (fun b -> clipped_intervals b ~from ~until) psbox.bindings

let destroy psbox =
  leave psbox;
  List.iter (fun b -> unregister psbox.sys psbox.p_app b.b_target) psbox.bindings
