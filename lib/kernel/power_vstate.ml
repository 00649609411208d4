open Psbox_engine

type device =
  | Cpu_dev of Psbox_hw.Cpu.t
  | Accel_dev of Psbox_hw.Accel.t
  | Wifi_dev of Psbox_hw.Wifi.t

type snapshot =
  | Opp of int
  | Nic of Psbox_hw.Wifi.power_state

(* The private ondemand decision period. It counts in-balloon time, so a
   psbox's frequency trajectory is the same whether its balloons are one
   long stretch (running alone) or many short slices (heavy co-running).
   One period and one up-threshold (0.6, see [governor_step]) serve every
   device, while the devices' own governors default to 0.7/50 ms on the
   CPU, 0.6/20 ms on the GPU and 0.5/50 ms on the DSP: a private decision
   can differ from the one the device's governor would take. Following
   each device's governor would change the paper outputs. *)
let sampling = Time.ms 50

type t = {
  sim : Sim.t;
  device : device;
  mutable psbox_state : snapshot;
  mutable world_state : snapshot option; (* saved while a balloon is open *)
  mutable balloon_started : Time.t;
  mutable busy_mark : float;
  mutable acc : Time.span; (* in-balloon time since the last private decision *)
  mutable busy_acc : float; (* busy device-seconds over the same window *)
  mutable in_balloon : bool;
  mutable timer : Sim.handle; (* mid-balloon private governor tick *)
}

let pristine device =
  match device with
  | Cpu_dev _ | Accel_dev _ -> Opp 0
  | Wifi_dev nic ->
      Nic { Psbox_hw.Wifi.tx_level = Psbox_hw.Wifi.tx_level nic; awake = false }

let capture device =
  match device with
  | Cpu_dev cpu -> Opp (Psbox_hw.Dvfs.opp_index (Psbox_hw.Cpu.dvfs cpu))
  | Accel_dev dev -> Opp (Psbox_hw.Dvfs.opp_index (Psbox_hw.Accel.dvfs dev))
  | Wifi_dev nic -> Nic (Psbox_hw.Wifi.power_state nic)

let restore device snap =
  match (device, snap) with
  | Cpu_dev cpu, Opp i -> Psbox_hw.Dvfs.set_opp (Psbox_hw.Cpu.dvfs cpu) i
  | Accel_dev dev, Opp i -> Psbox_hw.Dvfs.set_opp (Psbox_hw.Accel.dvfs dev) i
  | Wifi_dev nic, Nic st -> Psbox_hw.Wifi.restore_power_state nic st
  | (Cpu_dev _ | Accel_dev _), Nic _ | Wifi_dev _, Opp _ ->
      invalid_arg "Power_vstate: snapshot/device mismatch"

(* The governor's load notion: device non-idle time (not weighted
   occupancy), as for the real ondemand. *)
let busy_seconds device =
  match device with
  | Cpu_dev cpu -> Psbox_hw.Cpu.active_seconds cpu
  | Accel_dev dev -> Psbox_hw.Accel.active_seconds dev
  | Wifi_dev nic -> Psbox_hw.Wifi.airtime_seconds nic

let capacity _device = 1.0

let create sim device =
  {
    sim;
    device;
    psbox_state = pristine device;
    world_state = None;
    balloon_started = Time.zero;
    busy_mark = 0.0;
    acc = 0;
    busy_acc = 0.0;
    in_balloon = false;
    timer = Sim.none;
  }

let dvfs_of device =
  match device with
  | Cpu_dev cpu -> Some (Psbox_hw.Cpu.dvfs cpu)
  | Accel_dev dev -> Some (Psbox_hw.Accel.dvfs dev)
  | Wifi_dev _ -> None

let cancel_timer v =
  Sim.cancel v.sim v.timer;
  v.timer <- Sim.none

(* One ondemand decision over the accumulated in-balloon window. *)
let rec governor_step v =
  let dur = Time.to_sec_f v.acc in
  if dur > 0.0 then begin
    let util = v.busy_acc /. (dur *. capacity v.device) in
    let top =
      match v.device with
      | Cpu_dev cpu -> Psbox_hw.Dvfs.max_index (Psbox_hw.Cpu.dvfs cpu)
      | Accel_dev dev -> Psbox_hw.Dvfs.max_index (Psbox_hw.Accel.dvfs dev)
      | Wifi_dev _ -> 0
    in
    match (v.device, v.psbox_state) with
    | (Cpu_dev _ | Accel_dev _), Opp i ->
        let next = if util >= 0.6 then top else max 0 (i - 1) in
        v.psbox_state <- Opp next
    | Wifi_dev _, Nic _ ->
        (* private NIC state: transmission mode follows the app's own
           channel utilization (mirroring the chip's adaptation), and the
           tail/awake state follows its own recent activity *)
        let level =
          if util > 0.5 then 2 else if util > 0.15 then 1 else 0
        in
        v.psbox_state <-
          Nic { Psbox_hw.Wifi.tx_level = level; awake = util > 0.0 }
    | (Cpu_dev _ | Accel_dev _), Nic _ | Wifi_dev _, Opp _ -> ()
  end;
  v.acc <- 0;
  v.busy_acc <- 0.0

(* While a balloon stays open longer than a sampling period, the private
   governor must act mid-balloon (the device governor is frozen). *)
and arm_timer v =
  cancel_timer v;
  if v.in_balloon then begin
    let wait = max (Time.us 1) (sampling - v.acc) in
    v.timer <-
      Sim.schedule_after v.sim wait (fun () ->
          v.timer <- Sim.none;
          if v.in_balloon then begin
            let now = Sim.now v.sim in
            v.acc <- v.acc + (now - v.balloon_started);
            v.busy_acc <- v.busy_acc +. (busy_seconds v.device -. v.busy_mark);
            v.balloon_started <- now;
            v.busy_mark <- busy_seconds v.device;
            (* decide from the live state, apply to the live device *)
            v.psbox_state <- capture v.device;
            governor_step v;
            restore v.device v.psbox_state;
            arm_timer v
          end)
  end

let on_balloon_start v =
  v.in_balloon <- true;
  v.world_state <- Some (capture v.device);
  v.balloon_started <- Sim.now v.sim;
  v.busy_mark <- busy_seconds v.device;
  (match dvfs_of v.device with Some d -> Psbox_hw.Dvfs.freeze d | None -> ());
  (match v.device with
  | Wifi_dev nic -> Psbox_hw.Wifi.freeze_mode nic
  | Cpu_dev _ | Accel_dev _ -> ());
  restore v.device v.psbox_state;
  arm_timer v

let on_balloon_stop v =
  v.in_balloon <- false;
  cancel_timer v;
  (* save what the psbox's own activity left the device at (the real
     governor may have moved it during a long balloon) *)
  v.psbox_state <- capture v.device;
  v.acc <- v.acc + (Sim.now v.sim - v.balloon_started);
  v.busy_acc <- v.busy_acc +. (busy_seconds v.device -. v.busy_mark);
  if v.acc >= sampling then governor_step v;
  (match dvfs_of v.device with Some d -> Psbox_hw.Dvfs.thaw d | None -> ());
  (match v.device with
  | Wifi_dev nic -> Psbox_hw.Wifi.thaw_mode nic
  | Cpu_dev _ | Accel_dev _ -> ());
  match v.world_state with
  | Some snap ->
      restore v.device snap;
      v.world_state <- None
  | None -> ()

let saved_opp v = match v.psbox_state with Opp i -> Some i | Nic _ -> None
let saved_nic_state v = match v.psbox_state with Nic st -> Some st | Opp _ -> None
