open Psbox_engine

type count = { mutable v : float }

type app = {
  app_id : int;
  app_name : string;
  counters : (string, count) Hashtbl.t;
}

(* Energy bookkeeping, maintained by bus subscribers: O(1) per power
   transition, O(1) to query, regardless of history length. The floats sit
   in a float-only record, whose stores are unboxed; a float field of a
   mixed record would box on every store. *)
type energy = {
  mutable w : float; (* current draw *)
  mutable j : float; (* energy accumulated up to the ledger's [t] *)
}

(* The machine-wide ledger sums the draw over all metered rails; each
   physical rail also has its own, settled only on that rail's transitions
   (the draw is constant in between). The audit ledger reproduces exactly
   the per-rail accumulation, operand for operand, so its per-rail
   attribution totals can be compared bit-for-bit. *)
type ledger = { e : energy; mutable t : Time.t }

type t = {
  sim : Sim.t;
  rng : Rng.t;
  uid : int;
  cpu : Psbox_hw.Cpu.t;
  smp : Smp.t;
  gpu : Accel_driver.t option;
  dsp : Accel_driver.t option;
  net : Net_sched.t option;
  display : Psbox_hw.Display.t option;
  gps : Psbox_hw.Gps.t option;
  power_bus : Psbox_hw.Power_rail.transition Bus.t;
  ledger : ledger;
  rail_ledgers : (string, ledger) Hashtbl.t;
  mutable apps : app list;
  mutable next_app : int;
  mutable started : bool;
}

(* Per-machine side tables: physical equality, hashed by uid. *)
module Side_table = Ephemeron.K1.Make (struct
  type nonrec t = t

  let equal = ( == )
  let hash sys = sys.uid
end)

(* Domain-local: uids distinguish systems within one domain (the side
   tables hash on them), and hooks installed in one domain must not fire
   for systems booted in another. *)
let next_uid = Domain.DLS.new_key (fun () -> ref 0)

(* Boot hooks run at the end of [create], observing the fully wired
   machine. They let optional observers (the audit ledger) auto-attach to
   every system this domain builds without the kernel depending on them. *)
let boot_hooks : (t -> unit) list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let on_boot fn =
  let hooks = Domain.DLS.get boot_hooks in
  hooks := !hooks @ [ fn ]

let gpu_opps =
  [|
    { Psbox_hw.Dvfs.freq_mhz = 200; core_w = 0.10; uncore_w = 0.05 };
    { Psbox_hw.Dvfs.freq_mhz = 300; core_w = 0.16; uncore_w = 0.08 };
    { Psbox_hw.Dvfs.freq_mhz = 400; core_w = 0.24; uncore_w = 0.11 };
    { Psbox_hw.Dvfs.freq_mhz = 532; core_w = 0.34; uncore_w = 0.15 };
  |]

(* The C66x DSP's rail is dominated by shared clocking and on-chip SRAM:
   per-core kernels add comparatively little, which maximally entangles
   co-running apps' power (the paper's worst accounting errors are on the
   DSP, Figure 6 row 2). *)
let dsp_opps =
  [|
    { Psbox_hw.Dvfs.freq_mhz = 600; core_w = 0.12; uncore_w = 0.38 };
    { Psbox_hw.Dvfs.freq_mhz = 750; core_w = 0.18; uncore_w = 0.55 };
  |]

let create ?(seed = 42) ?(cores = 2)
    ?(cpu_governor =
      Psbox_hw.Dvfs.Ondemand { up_threshold = 0.7; sampling = Time.ms 50 })
    ?(cpu_idle_w = 0.3) ?(confine_cost = true) ?(gpu = false)
    ?(gpu_governor =
      Psbox_hw.Dvfs.Ondemand { up_threshold = 0.6; sampling = Time.ms 20 })
    ?(dsp = false) ?(wifi = false) ?(wifi_virtual_macs = false)
    ?(display = false) ?(gps = false)
    ?(rail_retention = Some (Time.sec 120)) () =
  let sim = Sim.create () in
  let rng = Rng.create ~seed in
  let retention = rail_retention in
  let cpu =
    Psbox_hw.Cpu.create sim ?retention ~governor:cpu_governor
      ~idle_w:cpu_idle_w ~cores ()
  in
  let smp = Smp.create sim cpu ~confine_cost in
  let gpu =
    if not gpu then None
    else begin
      let dev =
        Psbox_hw.Accel.create sim ?retention ~name:"gpu" ~units:4
          ~opps:gpu_opps ~governor:gpu_governor ~idle_w:0.08
          ~autosuspend:(Time.ms 200) ()
      in
      Some
        (Accel_driver.create sim dev ~buffering:Accel_driver.Lock_requests
           ~window:4 ~confine_cost ())
    end
  in
  let dsp =
    if not dsp then None
    else begin
      let dev =
        Psbox_hw.Accel.create sim ?retention ~name:"dsp" ~units:2
          ~opps:dsp_opps ~idle_w:0.25
          ~governor:(Psbox_hw.Dvfs.Ondemand { up_threshold = 0.5; sampling = Time.ms 50 })
          ()
      in
      Some (Accel_driver.create sim dev ~window:2 ~confine_cost ())
    end
  in
  let net =
    if not wifi then None
    else begin
      let nic =
        Psbox_hw.Wifi.create sim ?retention ~virtual_macs:wifi_virtual_macs ()
      in
      Some (Net_sched.create sim nic)
    end
  in
  let display =
    if display then Some (Psbox_hw.Display.create sim ?retention ()) else None
  in
  let gps = if gps then Some (Psbox_hw.Gps.create sim ?retention ()) else None in
  (* Composition root for the power bus: every metered rail settles its own
     ledger and the machine's from its own bus, then forwards its
     transitions onto one machine-wide bus for outside observers. *)
  let rails =
    [ Psbox_hw.Cpu.rail cpu ]
    @ (match gpu with
      | Some g -> [ Psbox_hw.Accel.rail (Accel_driver.device g) ]
      | None -> [])
    @ (match dsp with
      | Some d -> [ Psbox_hw.Accel.rail (Accel_driver.device d) ]
      | None -> [])
    @ (match net with
      | Some n -> [ Psbox_hw.Wifi.rail (Net_sched.nic n) ]
      | None -> [])
    @ (match display with Some d -> [ Psbox_hw.Display.rail d ] | None -> [])
    @ (match gps with Some g -> [ Psbox_hw.Gps.rail g ] | None -> [])
  in
  let now = Sim.now sim in
  let ledger =
    {
      e =
        {
          w =
            List.fold_left
              (fun acc r -> acc +. Psbox_hw.Power_rail.power r)
              0.0 rails;
          j = 0.0;
        };
      t = now;
    }
  in
  let rail_ledgers = Hashtbl.create 8 in
  let power_bus = Bus.create () in
  let forward r =
    ignore
      (Bus.subscribe (Psbox_hw.Power_rail.transitions r) (Bus.publish power_bus))
  in
  List.iter
    (fun r ->
      let rl = { e = { w = Psbox_hw.Power_rail.power r; j = 0.0 }; t = now } in
      Hashtbl.replace rail_ledgers (Psbox_hw.Power_rail.name r) rl;
      (* [Time.to_sec_f] written out: a float returned from another module
         comes back boxed *)
      ignore
        (Bus.subscribe (Psbox_hw.Power_rail.transitions r)
           (fun (tr : Psbox_hw.Power_rail.transition) ->
             let m = ledger.e in
             m.j <- m.j +. (m.w *. (float_of_int (tr.at - ledger.t) /. 1e9));
             ledger.t <- tr.at;
             m.w <- m.w +. tr.draws.after_w -. tr.draws.before_w;
             let e = rl.e in
             e.j <- e.j +. (e.w *. (float_of_int (tr.at - rl.t) /. 1e9));
             rl.t <- tr.at;
             e.w <- tr.draws.after_w));
      forward r)
    rails;
  (* Per-app attribution rails (display/GPS) are created lazily, after the
     machine boots: hot-join them onto the bus as they appear. They carry a
     share of their physical rail's power, so no ledger counts them. *)
  (match display with
  | Some d -> Psbox_hw.Display.set_on_app_rail d forward
  | None -> ());
  (match gps with
  | Some g -> Psbox_hw.Gps.set_on_app_rail g forward
  | None -> ());
  let uid_ref = Domain.DLS.get next_uid in
  incr uid_ref;
  let sys =
    {
      sim; rng; uid = !uid_ref; cpu; smp; gpu; dsp; net; display; gps;
      power_bus; ledger; rail_ledgers; apps = []; next_app = 1; started = false;
    }
  in
  List.iter (fun fn -> fn sys) !(Domain.DLS.get boot_hooks);
  sys

let am57 () = create ~cores:2 ~gpu:true ~dsp:true ()

let bbb ?seed () = create ?seed ~cores:1 ~wifi:true ()

let phone () =
  create ~cores:2 ~gpu:true ~wifi:true ~wifi_virtual_macs:true
    ~display:true ~gps:true ()

let sim sys = sys.sim
let rng sys = sys.rng
let cpu sys = sys.cpu
let smp sys = sys.smp

let gpu sys =
  match sys.gpu with Some g -> g | None -> invalid_arg "System.gpu: no GPU"

let dsp sys =
  match sys.dsp with Some d -> d | None -> invalid_arg "System.dsp: no DSP"

let net sys =
  match sys.net with Some n -> n | None -> invalid_arg "System.net: no WiFi"

let display sys =
  match sys.display with
  | Some d -> d
  | None -> invalid_arg "System.display: no display"

let gps sys =
  match sys.gps with Some g -> g | None -> invalid_arg "System.gps: no GPS"

let has_gpu sys = sys.gpu <> None
let has_dsp sys = sys.dsp <> None
let has_wifi sys = sys.net <> None
let has_display sys = sys.display <> None
let has_gps sys = sys.gps <> None

let rails sys =
  [ Psbox_hw.Cpu.rail sys.cpu ]
  @ (match sys.gpu with
    | Some g -> [ Psbox_hw.Accel.rail (Accel_driver.device g) ]
    | None -> [])
  @ (match sys.dsp with
    | Some d -> [ Psbox_hw.Accel.rail (Accel_driver.device d) ]
    | None -> [])
  @ (match sys.net with
    | Some n -> [ Psbox_hw.Wifi.rail (Net_sched.nic n) ]
    | None -> [])
  @ (match sys.display with
    | Some d -> [ Psbox_hw.Display.rail d ]
    | None -> [])
  @ match sys.gps with Some g -> [ Psbox_hw.Gps.rail g ] | None -> []

let new_app sys ~name =
  let app = { app_id = sys.next_app; app_name = name; counters = Hashtbl.create 8 } in
  sys.next_app <- sys.next_app + 1;
  sys.apps <- app :: sys.apps;
  app

let apps sys = List.rev sys.apps
let app_by_id sys id = List.find_opt (fun a -> a.app_id = id) sys.apps

(* A bump hashes its key once (twice on the key's first bump) and adds to
   the float-only cell in place. *)
let bump app key v =
  match Hashtbl.find app.counters key with
  | c -> c.v <- c.v +. v
  | exception Not_found -> Hashtbl.add app.counters key { v = 0.0 +. v }

let counter app key =
  match Hashtbl.find app.counters key with c -> c.v | exception Not_found -> 0.0

let start sys =
  if not sys.started then begin
    sys.started <- true;
    Smp.start sys.smp
  end

let run_for sys span = Sim.run_until sys.sim (Sim.now sys.sim + span)
let now sys = Sim.now sys.sim

let power_bus sys = sys.power_bus
let live_power_w sys = sys.ledger.e.w

let energy_at l now = l.e.j +. (l.e.w *. Time.to_sec_f (now - l.t))
let live_energy_j sys = energy_at sys.ledger (Sim.now sys.sim)

let rail_energy_j sys ~name =
  match Hashtbl.find_opt sys.rail_ledgers name with
  | Some rl -> energy_at rl (Sim.now sys.sim)
  | None -> invalid_arg ("System.rail_energy_j: unknown rail " ^ name)

let rail_energy_table sys =
  Hashtbl.fold (fun name _ acc -> name :: acc) sys.rail_ledgers []
  |> List.sort compare
  |> List.map (fun name -> (name, rail_energy_j sys ~name))

let uid sys = sys.uid

let shutdown sys =
  Smp.stop sys.smp;
  Psbox_hw.Cpu.stop sys.cpu;
  (match sys.gpu with
  | Some g -> Psbox_hw.Accel.stop (Accel_driver.device g)
  | None -> ());
  (match sys.dsp with
  | Some d -> Psbox_hw.Accel.stop (Accel_driver.device d)
  | None -> ())
