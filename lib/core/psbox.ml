open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Temporal_sched = Psbox_kernel.Temporal_sched
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
  b_balloons : (unit -> (Time.t * Time.t) list * Time.t option) option;
      (* the device scheduler's balloons: the completed ones, oldest first,
         and the start of the open one. [None] for Display and GPS, which
         have none: the stay itself is their interval. *)
  b_attach : unit -> unit;
  b_detach : Time.t -> unit; (* given the stay's start *)
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
  mutable left_at : Time.t;
  mutable blame_at_enter : (Audit.cause * float) list;
  mutable last_stay_blame : (string * float) list;
}

(* One psbox per (system, app, target). The (app, target) pairs in use are
   kept per domain in a side table keyed by the system, so a machine whose
   psboxes were never destroyed stays collectable. *)
let boxes : (int * target) list System.Side_table.t Domain.DLS.key =
  Domain.DLS.new_key (fun () -> System.Side_table.create 8)

let boxes_of sys =
  Option.value ~default:[]
    (System.Side_table.find_opt (Domain.DLS.get boxes) sys)

let registered sys app target = List.mem (app, target) (boxes_of sys)

let register sys app target =
  System.Side_table.replace (Domain.DLS.get boxes) sys
    ((app, target) :: boxes_of sys)

let unregister sys app target =
  let tbl = Domain.DLS.get boxes in
  match List.filter (( <> ) (app, target)) (boxes_of sys) with
  | [] -> System.Side_table.remove tbl sys
  | rest -> System.Side_table.replace tbl sys rest

let now psbox = Sim.now (System.sim psbox.sys)

let make_binding sys ~app ~virtualize target =
  let sim = System.sim sys in
  (* A balloon ended (for Display and GPS, a stay): count it and draw it. *)
  let closed target t0 =
    Tm.incr_in (Sim.metrics sim) m_balloons;
    if Tt.recording_in (Sim.tracer sim) then
      Tt.span ~track:psbox_track ~lane:(target_label target) ~name:"balloon"
        ~start:t0 ~stop:(Sim.now sim) ()
  in
  (* Display and GPS power is entanglement-free (§7): the per-app rail is
     already an exact, insulated view, so the binding's "balloon" is simply
     the whole stay inside the box. *)
  let direct_view ~target ~rail ~idle =
    {
      b_target = target;
      b_rail = rail;
      b_idle = Flat idle;
      b_balloons = None;
      b_attach = ignore;
      b_detach = closed target;
    }
  in
  (* Devices with balloons: the listener drives the power-state
     virtualization; the scheduler keeps the intervals. *)
  let on_start vstate () =
    if virtualize then Power_vstate.on_balloon_start vstate
  in
  let on_stop target vstate t0 =
    closed target t0;
    if virtualize then Power_vstate.on_balloon_stop vstate
  in
  (* GPU, DSP and NIC: temporal balloons from the device's scheduler *)
  let temporal ~target ~idle vstate s =
    {
      b_target = target;
      b_rail = Temporal_sched.rail s;
      b_idle = idle;
      b_balloons =
        Some
          (fun () ->
            ( Temporal_sched.balloon_intervals s,
              Temporal_sched.balloon_open_since s ));
      b_attach =
        (fun () ->
          Temporal_sched.set_balloon_listener s ~on_start:(on_start vstate)
            ~on_stop:(on_stop target vstate);
          Temporal_sched.sandbox s ~app);
      b_detach = (fun _ -> Temporal_sched.unsandbox s);
    }
  in
  match target with
  | Cpu ->
      let cpu = System.cpu sys in
      let vstate = Power_vstate.create sim (Power_vstate.Cpu_dev cpu) in
      let rail = Psbox_hw.Cpu.rail cpu in
      (* a stay's balloon, kept after [leave] for the stay's readings *)
      let balloon = ref None in
      {
        b_target = target;
        b_rail = rail;
        b_idle = Flat (Power_rail.idle_w rail);
        b_balloons =
          Some
            (fun () ->
              match !balloon with
              | Some b -> (Smp.balloon_intervals b, Smp.balloon_open_since b)
              | None -> ([], None));
        b_attach =
          (fun () ->
            balloon :=
              Some
                (Smp.sandbox (System.smp sys) ~app ~on_start:(on_start vstate)
                   ~on_stop:(on_stop target vstate)));
        b_detach =
          (fun _ -> Option.iter (Smp.unsandbox (System.smp sys)) !balloon);
      }
  | Gpu | Dsp ->
      let driver = if target = Gpu then System.gpu sys else System.dsp sys in
      let dev = Accel_driver.device driver in
      let vstate = Power_vstate.create sim (Power_vstate.Accel_dev dev) in
      temporal ~target
        ~idle:(Flat (Power_rail.idle_w (Psbox_hw.Accel.rail dev)))
        vstate (Accel_driver.sched driver)
  | Wifi ->
      let netd = System.net sys in
      let nic = Net_sched.nic netd in
      let vstate = Power_vstate.create sim (Power_vstate.Wifi_dev nic) in
      temporal ~target
        ~idle:
          (Nic_tail
             {
               awake_w = Psbox_hw.Wifi.awake_w nic;
               ps_w = Psbox_hw.Wifi.ps_w nic;
               tail = Psbox_hw.Wifi.tail nic;
             })
        vstate (Net_sched.sched netd)
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
    left_at = Time.zero;
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
    Tm.incr_in (Sim.metrics (System.sim psbox.sys)) m_enters;
    if Tt.recording_in (Sim.tracer (System.sim psbox.sys)) then
      Tt.instant ~track:psbox_track
        ~lane:("app" ^ string_of_int psbox.p_app)
        ~name:"enter" (now psbox);
    List.iter (fun b -> b.b_attach ()) psbox.bindings
  end

let leave psbox =
  if psbox.inside then begin
    List.iter (fun b -> b.b_detach psbox.entered_at) psbox.bindings;
    psbox.inside <- false;
    psbox.left_at <- now psbox;
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
    Tm.incr_in (Sim.metrics (System.sim psbox.sys)) m_leaves;
    if Tt.recording_in (Sim.tracer (System.sim psbox.sys)) then
      Tt.instant ~track:psbox_track
        ~lane:("app" ^ string_of_int psbox.p_app)
        ~name:"leave" (now psbox)
  end

let inside psbox = psbox.inside
let stay_blame psbox = psbox.last_stay_blame
let targets psbox = List.map (fun b -> b.b_target) psbox.bindings

(* The current stay, or the last one once left. *)
let stay psbox =
  (psbox.entered_at, if psbox.inside then now psbox else psbox.left_at)

(* Balloon intervals of one binding clipped to [from, until], oldest
   first. *)
let clipped_intervals binding ~from ~until =
  let all =
    match binding.b_balloons with
    | None -> [ (from, until) ]
    | Some balloons -> (
        let closed, live = balloons () in
        match live with
        | Some t0 -> closed @ [ (t0, until) ]
        | None -> closed)
  in
  List.filter_map
    (fun (t0, t1) ->
      let t0 = max t0 from and t1 = min t1 until in
      if t1 > t0 then Some (t0, t1) else None)
    all

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

let sample_target psbox target =
  if not psbox.inside then raise Not_in_psbox;
  match List.find_opt (fun b -> b.b_target = target) psbox.bindings with
  | None -> invalid_arg "Psbox.sample_target: target not bound"
  | Some b ->
      samples_of_binding b ~from:psbox.entered_at ~until:(now psbox)

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
  let from, until = stay psbox in
  List.fold_left
    (fun acc b ->
      acc
      +. List.fold_left
           (fun acc (t0, t1) -> acc +. Time.to_us_f (t1 - t0))
           0.0
           (clipped_intervals b ~from ~until))
    0.0 psbox.bindings

let exclusive_intervals psbox =
  let from, until = stay psbox in
  List.concat_map (fun b -> clipped_intervals b ~from ~until) psbox.bindings

let destroy psbox =
  leave psbox;
  List.iter (fun b -> unregister psbox.sys psbox.p_app b.b_target) psbox.bindings
