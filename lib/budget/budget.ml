open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Temporal_sched = Psbox_kernel.Temporal_sched
module Split = Psbox_accounting.Split
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

let budget_track = "budget"
let m_ticks = Tm.counter "budget.ticks"

(* Machine-wide cap-violation count: one per (entry, tick) whose windowed
   mean overshoots its effective cap by >5% — the "bad events" numerator
   the health engine's SLO burn-rate rules consume (budget.ticks being the
   denominator). *)
let m_violations = Tm.counter "budget.cap_violations"

(* interned at load, so sim.events.budget.tick has its row in the initial
   store whether or not a controller ever ticks *)
let l_tick = Sim.label "budget.tick"

type admission = Admitted | Queued | Rejected

(* Throttle floor: even a hopeless cap (below the app's attributed idle
   share) leaves the app a sliver of every period, so it degrades
   gracefully instead of starving. *)
let throttle_floor = 0.02

(* The control period, the measurement window in periods and the
   hysteresis band around the cap. *)
let period = Time.ms 50
let window_periods = 4
let hysteresis = 0.05

type entry = {
  e_app : int;
  mutable e_cap : float; (* watts; infinity never binds *)
  mutable e_throttle : float; (* multiplicative actuation level, floor..1 *)
  mutable e_prev_j : float; (* attributed joules at last control tick *)
  e_ring : float array; (* per-period joules, circular *)
  mutable e_ring_i : int;
  mutable e_ring_n : int;
  mutable e_history : (Time.t * float * float) list;
      (* (tick time, windowed mean W, effective cap W), newest first *)
  (* telemetry handles (per app, resolved once) *)
  e_lane : string; (* "app<id>" *)
  e_g_throttle : Tm.gauge; (* budget.app<id>.throttle_level *)
  e_g_measured : Tm.gauge; (* budget.app<id>.measured_w *)
  e_c_viol : Tm.counter; (* budget.app<id>.violations *)
}

type t = {
  sys : System.t;
  entries : (int, entry) Hashtbl.t;
  splitters : Split.live list; (* one per actuated rail, auto-wired *)
  tick : Sim.timer; (* the control-period grid, from creation *)
  (* admission *)
  mutable machine_budget_w : float option;
  reserved : (int, float * float) Hashtbl.t;
      (* app -> (declared watts, effective watts charged to the budget) *)
  wait_q : (int * float) Queue.t; (* (app, declared watts), FIFO, head next *)
  mutable admission_estimate : (int -> float option) option;
      (* modeled-draw oracle (e.g. Model.Estimator.app_est_w): when set,
         reservations are charged min(declared, modeled) — declared watts
         stay the contract, modeled history the price *)
}

let m_overdeclared = Tm.gauge "budget.admission.overdeclared_w"

let sim ctl = System.sim ctl.sys
let now ctl = Sim.now (sim ctl)
let store ctl = Sim.metrics (sim ctl)

(* ------------------------------------------------------------------ *)
(* Measurement: per-app attributed draw, summed over the machine's
   actuated rails via the auto-wired live splitters.                    *)

let app_total_j ctl ~app =
  let until = now ctl in
  List.fold_left
    (fun acc lv ->
      match List.assoc_opt app (Split.live_read lv ~until) with
      | Some j -> acc +. j
      | None -> acc)
    0.0 ctl.splitters

let windowed_mean_w e =
  let n = e.e_ring_n in
  if n = 0 then 0.0
  else begin
    let j = ref 0.0 in
    for i = 0 to n - 1 do
      j := !j +. e.e_ring.(i)
    done;
    !j /. (float_of_int n *. Time.to_sec_f period)
  end

(* ------------------------------------------------------------------ *)
(* Actuation: one throttle level per app, mapped onto every subsystem's
   knob. At 1.0 all knobs are released, so an un-throttled machine runs
   the exact event sequence it would without a controller.              *)

(* A device gate at [t_] times its rate unit, what a throttle of 1.0
   admits per second (accelerator unit-seconds, NIC bytes); [full]
   releases it. Top-level, not closures: this runs every control tick. *)
let gate s ~app ~full t_ unit_rate =
  Temporal_sched.set_rate s ~app (if full then None else Some (t_ *. unit_rate))

let accel_gate d ~app ~full t_ =
  gate (Accel_driver.sched d) ~app ~full t_
    (float_of_int (Psbox_hw.Accel.units (Accel_driver.device d)))

let set_device_rates ctl ~app ~full t_ =
  if System.has_gpu ctl.sys then accel_gate (System.gpu ctl.sys) ~app ~full t_;
  if System.has_dsp ctl.sys then accel_gate (System.dsp ctl.sys) ~app ~full t_;
  if System.has_wifi ctl.sys then begin
    let net = System.net ctl.sys in
    gate (Net_sched.sched net) ~app ~full t_
      (Psbox_hw.Wifi.rate_bps (Net_sched.nic net) /. 8.0)
  end

let actuate ctl e =
  let t_ = e.e_throttle in
  let full = t_ >= 0.999 in
  let smp = System.smp ctl.sys in
  Smp.set_quota smp ~app:e.e_app
    (if full then None
     else Some (t_ *. float_of_int (Smp.cores smp)));
  set_device_rates ctl ~app:e.e_app ~full t_

let release_actuation ctl app =
  Smp.set_quota (System.smp ctl.sys) ~app None;
  set_device_rates ctl ~app ~full:true 1.0

(* ------------------------------------------------------------------ *)
(* Control loop                                                         *)

let control_entry ctl e =
  (* settle this period's attributed energy into the window *)
  let total = app_total_j ctl ~app:e.e_app in
  let period_j = Float.max 0.0 (total -. e.e_prev_j) in
  e.e_prev_j <- total;
  e.e_ring.(e.e_ring_i) <- period_j;
  e.e_ring_i <- (e.e_ring_i + 1) mod Array.length e.e_ring;
  if e.e_ring_n < Array.length e.e_ring then e.e_ring_n <- e.e_ring_n + 1;
  let meas = windowed_mean_w e in
  let cap = e.e_cap in
  e.e_history <- (now ctl, meas, cap) :: e.e_history;
  Tm.set_in (store ctl) e.e_g_measured meas;
  (* the fleet layer's violation criterion, counted live so SLO burn-rate
     rules can watch it stream *)
  if Float.is_finite cap && meas > cap *. 1.05 then begin
    let store = store ctl in
    Tm.incr_in store m_violations;
    Tm.incr_in store e.e_c_viol
  end;
  if Tt.recording_in (Sim.tracer (sim ctl)) then
    Tt.span ~track:budget_track ~lane:e.e_lane ~name:"control"
      ~args:
        [
          ("measured_w", meas);
          ("cap_w", (if Float.is_finite cap then cap else -1.0));
          ("throttle", e.e_throttle);
        ]
      ~start:(max 0 (now ctl - period))
      ~stop:(now ctl) ();
  (* multiplicative-proportional law with a deadband, steered by the
     {e last period's} draw (the windowed mean above is what we report and
     judge convergence on, but steering on it adds 'window' periods of
     lag and turns the loop into a limit cycle): over the cap, scale the
     throttle down by the overshoot ratio (at most halving per period);
     under it, relax back up by the same ratio (at most 10% per period).
     Inside the hysteresis band the throttle holds. *)
  let meas_p = period_j /. Time.to_sec_f period in
  let over = cap *. (1.0 +. hysteresis) in
  let under = cap *. (1.0 -. hysteresis) in
  let t0 = e.e_throttle in
  if meas_p > over && meas_p > 0.0 then
    e.e_throttle <-
      Float.max throttle_floor (t0 *. Float.max 0.5 (cap /. meas_p))
  else if meas_p < under && t0 < 1.0 then
    e.e_throttle <-
      Float.min 1.0 (t0 *. Float.min 1.1 (cap /. Float.max meas_p 1e-9));
  Tm.set_in (store ctl) e.e_g_throttle e.e_throttle;
  if e.e_throttle <> t0 then actuate ctl e

(* The control tick is demand-armed on its timer's grid: it runs only
   while there is an entry to control. An idle controller costs no
   simulator events, and because skipped periods would have iterated zero
   entries they are exact no-ops. *)
let rec arm_tick ctl =
  if Hashtbl.length ctl.entries > 0 then
    Sim.arm ctl.tick (fun () -> tick_fired ctl)

and tick_fired ctl =
  Tm.incr_in (store ctl) m_ticks;
  Hashtbl.iter (fun _ e -> control_entry ctl e) ctl.entries;
  arm_tick ctl

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)

(* NaN passes every [x < 0.0] test and would reach the actuators as a NaN
   throttle, quota and gate rate; infinity stays a valid "no cap". *)
let check_watts fn what x =
  if Float.is_nan x then invalid_arg (Printf.sprintf "Budget.%s: NaN %s" fn what);
  if x < 0.0 then invalid_arg (Printf.sprintf "Budget.%s: negative %s" fn what)

let create sys ?machine_budget_w () =
  Option.iter (check_watts "create" "machine budget") machine_budget_w;
  let from = Sim.now (System.sim sys) in
  let splitters = Split.live_system sys ~from in
  let ctl =
    {
      sys;
      entries = Hashtbl.create 8;
      splitters;
      tick = Sim.timer (System.sim sys) ~label:l_tick period;
      machine_budget_w;
      reserved = Hashtbl.create 8;
      wait_q = Queue.create ();
      admission_estimate = None;
    }
  in
  (* no periodic timer: the first entry arms the control loop *)
  ctl

let entry ctl app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> e
  | None ->
      let e =
        {
          e_app = app;
          e_cap = infinity;
          e_throttle = 1.0;
          e_prev_j = app_total_j ctl ~app;
          e_ring = Array.make window_periods 0.0;
          e_ring_i = 0;
          e_ring_n = 0;
          e_history = [];
          e_lane = "app" ^ string_of_int app;
          e_g_throttle =
            Tm.gauge (Printf.sprintf "budget.app%d.throttle_level" app);
          e_g_measured =
            Tm.gauge (Printf.sprintf "budget.app%d.measured_w" app);
          e_c_viol =
            Tm.counter (Printf.sprintf "budget.app%d.violations" app);
        }
      in
      Tm.set_in (store ctl) e.e_g_throttle e.e_throttle;
      Hashtbl.replace ctl.entries app e;
      arm_tick ctl;
      e

let check_app fn app =
  if app < 0 then
    invalid_arg (Printf.sprintf "Budget.%s: app %d is negative" fn app)

let set_cap ctl ~app ~watts =
  check_app "set_cap" app;
  check_watts "set_cap" "cap" watts;
  (entry ctl app).e_cap <- watts

let measured_w ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> windowed_mean_w e
  | None -> 0.0

let effective_cap_w ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> e.e_cap
  | None -> infinity

let throttle ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> e.e_throttle
  | None -> 1.0

let history ctl ~app =
  match Hashtbl.find_opt ctl.entries app with
  | Some e -> List.rev e.e_history
  | None -> []

let stop ctl =
  if Sim.timer_state ctl.tick <> Sim.Stopped then begin
    Sim.stop_timer ctl.tick;
    Hashtbl.iter (fun app _ -> release_actuation ctl app) ctl.entries;
    List.iter Split.live_detach ctl.splitters
  end

(* ------------------------------------------------------------------ *)
(* Admission control                                                    *)

let reserved_w ctl =
  Hashtbl.fold (fun _ (_, eff) acc -> acc +. eff) ctl.reserved 0.0

let remaining_w ctl =
  match ctl.machine_budget_w with
  | None -> infinity
  | Some b -> b -. reserved_w ctl

let set_machine_budget ctl w =
  Option.iter (check_watts "set_machine_budget" "budget") w;
  ctl.machine_budget_w <- w

let set_admission_estimate ctl f = ctl.admission_estimate <- f

(* Effective reservation: the declared watts, cross-checked against the
   modeled draw when an estimate oracle is wired in. Over-declaring apps
   are charged what the model says they actually draw; under-declaring
   apps still pay their full declaration (the cap they asked for). *)
let effective_reservation ctl ~app ~declared =
  match ctl.admission_estimate with
  | None -> declared
  | Some f -> (
      match f app with
      | Some est when est >= 0.0 -> Float.min declared est
      | Some _ | None -> declared)

let update_overdeclared ctl =
  Tm.set_in (store ctl) m_overdeclared
    (Hashtbl.fold
       (fun _ (decl, eff) acc -> acc +. (decl -. eff))
       ctl.reserved 0.0)

let admitted ctl ~app = Hashtbl.mem ctl.reserved app
let queued ctl = Queue.length ctl.wait_q

let reservation ctl ~app = Hashtbl.find_opt ctl.reserved app

let admit ctl ~app ~watts ?(queue = false) () =
  check_watts "admit" "demand" watts;
  if Hashtbl.mem ctl.reserved app then invalid_arg "Budget.admit: already admitted";
  let eff = effective_reservation ctl ~app ~declared:watts in
  if eff <= remaining_w ctl then begin
    Hashtbl.replace ctl.reserved app (watts, eff);
    update_overdeclared ctl;
    Admitted
  end
  else if queue then begin
    Queue.push (app, watts) ctl.wait_q;
    Queued
  end
  else Rejected

let release ctl ~app =
  if Hashtbl.mem ctl.reserved app then begin
    Hashtbl.remove ctl.reserved app;
    (* head-first drain: strict FIFO, so a large waiter at the head blocks
       smaller ones behind it (no sneak-past starvation of big requests).
       The head's effective charge is re-evaluated at drain time — the
       model has seen the waiter's history since it queued. *)
    let continue = ref true in
    while !continue && not (Queue.is_empty ctl.wait_q) do
      let w_app, w_watts = Queue.peek ctl.wait_q in
      let w_eff = effective_reservation ctl ~app:w_app ~declared:w_watts in
      if w_eff <= remaining_w ctl then begin
        ignore (Queue.pop ctl.wait_q);
        Hashtbl.replace ctl.reserved w_app (w_watts, w_eff)
      end
      else continue := false
    done;
    update_overdeclared ctl
  end
