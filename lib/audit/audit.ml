open Psbox_engine
module System = Psbox_kernel.System
module Smp = Psbox_kernel.Smp
module Accel_driver = Psbox_kernel.Accel_driver
module Net_sched = Psbox_kernel.Net_sched
module Temporal_sched = Psbox_kernel.Temporal_sched
module Power_rail = Psbox_hw.Power_rail
module Dvfs = Psbox_hw.Dvfs
module Tm = Psbox_telemetry.Metrics

type cause = Active | Shared_rail | Lingering | Dvfs_transition | Idle_floor

let cause_label = function
  | Active -> "active"
  | Shared_rail -> "shared-rail"
  | Lingering -> "lingering"
  | Dvfs_transition -> "dvfs-transition"
  | Idle_floor -> "idle-floor"

let cause_of_label = function
  | "active" -> Some Active
  | "shared-rail" -> Some Shared_rail
  | "lingering" -> Some Lingering
  | "dvfs-transition" -> Some Dvfs_transition
  | "idle-floor" -> Some Idle_floor
  | _ -> None

let cause_rank = function
  | Active -> 0
  | Shared_rail -> 1
  | Lingering -> 2
  | Dvfs_transition -> 3
  | Idle_floor -> 4

let all_causes = [ Active; Shared_rail; Lingering; Dvfs_transition; Idle_floor ]

(* Per-rail attribution state. Within one constant-power segment of the
   rail (between two of its transitions), the classification inputs —
   shares, last active app, DVFS index — may change several times; each
   change closes a sub-interval whose energy is billed under the state
   that held *during* it. *)
type rstate = {
  rs_rail : string;
  rs_subsystem : string;
  rs_floor_w : float;
  mutable rs_cur_w : float; (* draw over the current segment *)
  mutable rs_seg_start : Time.t; (* segment start: mirrors the kernel ledger *)
  mutable rs_mark : Time.t; (* start of the open sub-interval *)
  mutable rs_total_j : float; (* settled, bit-identical to the kernel ledger *)
  rs_shares : (int, float) Hashtbl.t; (* app -> current share, > 0 *)
  mutable rs_last_active : int; (* lingering blame; 0 until anyone runs *)
  mutable rs_dvfs_index : int; (* as of the open sub-interval *)
  rs_cells : (int * cause, float) Hashtbl.t; (* (app, cause) -> joules *)
  rs_m_rail : Tm.counter;
}

type t = { a_sys : System.t; a_rails : (string, rstate) Hashtbl.t }

(* All five cause counters resolved at load — no lazily-populated shared
   memo for concurrent devices to race on. *)
let m_cause =
  let cells =
    List.map
      (fun c -> (c, Tm.counter ("audit.cause." ^ cause_label c ^ "_j")))
      all_causes
  in
  fun cause -> List.assq cause cells

(* Split the rail's current draw into (app, cause, watts) parts. The
   parts need not sum to the draw bit-exactly: read-time rows re-derive
   the idle-floor remainder against the exact rail total. *)
let classify rs =
  let w = rs.rs_cur_w in
  if w <= 0.0 then []
  else begin
    let idle = Float.min w rs.rs_floor_w in
    let dyn = w -. idle in
    let base = if idle > 0.0 then [ (0, Idle_floor, idle) ] else [] in
    if dyn <= 0.0 then base
    else begin
      let total_share, napps, an_app =
        Hashtbl.fold
          (fun app s (ts, n, _) ->
            if s > 0.0 then (ts +. s, n + 1, app) else (ts, n, app))
          rs.rs_shares (0.0, 0, 0)
      in
      if napps = 0 then begin
        (* nobody is using the device yet it draws above its floor: a
           lingering power state, split out further when the DVFS state is
           still elevated (the governor has not stepped down) *)
        let cause = if rs.rs_dvfs_index > 0 then Dvfs_transition else Lingering in
        (rs.rs_last_active, cause, dyn) :: base
      end
      else if napps = 1 then (an_app, Active, dyn) :: base
      else
        Hashtbl.fold
          (fun app s acc ->
            if s > 0.0 then (app, Shared_rail, dyn *. (s /. total_share)) :: acc
            else acc)
          rs.rs_shares base
    end
  end

let flush rs at =
  if at > rs.rs_mark then begin
    let dt = Time.to_sec_f (at - rs.rs_mark) in
    List.iter
      (fun (app, cause, w) ->
        let j = w *. dt in
        let key = (app, cause) in
        let cur =
          match Hashtbl.find_opt rs.rs_cells key with Some x -> x | None -> 0.0
        in
        Hashtbl.replace rs.rs_cells key (cur +. j);
        Tm.add rs.rs_m_rail j;
        Tm.add (m_cause cause) j)
      (classify rs);
    rs.rs_mark <- at
  end

let set_share rs at app share =
  flush rs at;
  if share > 0.0 then begin
    Hashtbl.replace rs.rs_shares app share;
    rs.rs_last_active <- app
  end
  else Hashtbl.remove rs.rs_shares app

(* ---- per-domain switchboard ---------------------------------------- *)

(* Domain-local, like the boot hooks it piggybacks on: a fleet worker
   enabling or attaching audits never touches the main domain's report
   registry or lookup table. *)
type switchboard = {
  mutable sw_on : bool;
  mutable sw_hook : bool;
  mutable sw_report : bool;
  mutable sw_registry : t list; (* strong, newest first *)
  (* uid -> weak instance: live machines resolve deterministically, dead
     ones stay collectable (the instance is kept alive by the machine's own
     bus subscriptions, not by this table). *)
  sw_live : (int, t Weak.t) Hashtbl.t;
}

let sw_key : switchboard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sw_on = false;
        sw_hook = false;
        sw_report = false;
        sw_registry = [];
        sw_live = Hashtbl.create 8;
      })

let sw () = Domain.DLS.get sw_key

let lookup sys =
  match Hashtbl.find_opt (sw ()).sw_live (System.uid sys) with
  | Some w -> Weak.get w 0
  | None -> None

let attach sys =
  match lookup sys with
  | Some a -> a
  | None ->
      let a = { a_sys = sys; a_rails = Hashtbl.create 8 } in
      let now = System.now sys in
      let add rail subsystem dvfs =
        let name = Power_rail.name rail in
        let rs =
          {
            rs_rail = name;
            rs_subsystem = subsystem;
            rs_floor_w = Power_rail.floor_w rail;
            rs_cur_w = Power_rail.power rail;
            rs_seg_start = now;
            rs_mark = now;
            rs_total_j = 0.0;
            rs_shares = Hashtbl.create 4;
            rs_last_active = 0;
            rs_dvfs_index = 0;
            rs_cells = Hashtbl.create 16;
            rs_m_rail = Tm.counter ("audit.rail." ^ name ^ "_j");
          }
        in
        Hashtbl.replace a.a_rails name rs;
        (match dvfs with
        | Some d ->
            rs.rs_dvfs_index <- Dvfs.opp_index d;
            ignore
              (Bus.subscribe (Dvfs.changes d) (fun (ch : Dvfs.change) ->
                   flush rs ch.at;
                   rs.rs_dvfs_index <- ch.index_after))
        | None -> ());
        rs
      in
      let cpu = System.cpu sys in
      let cpu_rs =
        add (Psbox_hw.Cpu.rail cpu) "cpu" (Some (Psbox_hw.Cpu.dvfs cpu))
      in
      let follow rs bus =
        ignore
          (Bus.subscribe bus (fun (c : Temporal_sched.share_change) ->
               set_share rs c.at c.app c.share))
      in
      follow cpu_rs (Smp.share_bus (System.smp sys));
      let accel name drv =
        let dev = Accel_driver.device drv in
        follow
          (add (Psbox_hw.Accel.rail dev) name (Some (Psbox_hw.Accel.dvfs dev)))
          (Temporal_sched.share_bus (Accel_driver.sched drv))
      in
      if System.has_gpu sys then accel "accel.gpu" (System.gpu sys);
      if System.has_dsp sys then accel "accel.dsp" (System.dsp sys);
      (if System.has_wifi sys then
         let netd = System.net sys in
         follow
           (add (Psbox_hw.Wifi.rail (Net_sched.nic netd)) "net" None)
           (Temporal_sched.share_bus (Net_sched.sched netd)));
      if System.has_display sys then
        ignore (add (Psbox_hw.Display.rail (System.display sys)) "display" None);
      if System.has_gps sys then
        ignore (add (Psbox_hw.Gps.rail (System.gps sys)) "gps" None);
      ignore
        (Bus.subscribe (System.power_bus sys)
           (fun (tr : Power_rail.transition) ->
             match Hashtbl.find_opt a.a_rails tr.rail_name with
             | Some rs ->
                 flush rs tr.at;
                 (* the kernel rail ledger's expression, operand for
                    operand, so the totals stay bit-identical *)
                 rs.rs_total_j <-
                   rs.rs_total_j
                   +. (rs.rs_cur_w *. Time.to_sec_f (tr.at - rs.rs_seg_start));
                 rs.rs_seg_start <- tr.at;
                 rs.rs_cur_w <- tr.after_w
             | None -> (
                 (* "<physical>.app<id>" attribution rails (display, GPS)
                    double as share feeds: the app rail's draw is its
                    share of the physical rail *)
                 match String.index_opt tr.rail_name '.' with
                 | None -> ()
                 | Some i -> (
                     let phys = String.sub tr.rail_name 0 i in
                     let rest =
                       String.sub tr.rail_name (i + 1)
                         (String.length tr.rail_name - i - 1)
                     in
                     match Hashtbl.find_opt a.a_rails phys with
                     | Some rs
                       when String.length rest > 3
                            && String.sub rest 0 3 = "app" -> (
                         match
                           int_of_string_opt
                             (String.sub rest 3 (String.length rest - 3))
                         with
                         | Some app -> set_share rs tr.at app tr.after_w
                         | None -> ())
                     | _ -> ()))));
      let w = Weak.create 1 in
      Weak.set w 0 (Some a);
      let s = sw () in
      Hashtbl.replace s.sw_live (System.uid sys) w;
      if s.sw_report then s.sw_registry <- a :: s.sw_registry;
      a

let enable () =
  let s = sw () in
  s.sw_on <- true;
  if not s.sw_hook then begin
    s.sw_hook <- true;
    System.on_boot (fun sys -> if (sw ()).sw_on then ignore (attach sys : t))
  end

let disable () = (sw ()).sw_on <- false
let enabled () = (sw ()).sw_on

let set_report_mode b = (sw ()).sw_report <- b
let report_mode () = (sw ()).sw_report
let instances () = List.rev (sw ()).sw_registry

(* ---- reading the blame matrix ------------------------------------- *)

type row = { r_app : int; r_cause : cause; r_j : float; r_residual : bool }

let rails a =
  Hashtbl.fold (fun name _ acc -> name :: acc) a.a_rails []
  |> List.sort String.compare

let rail_state a ~rail =
  match Hashtbl.find_opt a.a_rails rail with
  | Some rs -> rs
  | None -> invalid_arg ("Audit: unknown rail " ^ rail)

let subsystem a ~rail = (rail_state a ~rail).rs_subsystem

let rail_total a ~rail =
  let rs = rail_state a ~rail in
  let now = System.now a.a_sys in
  rs.rs_total_j +. (rs.rs_cur_w *. Time.to_sec_f (now - rs.rs_seg_start))

let rows a ~rail =
  let rs = rail_state a ~rail in
  let now = System.now a.a_sys in
  flush rs now;
  let total = rs.rs_total_j +. (rs.rs_cur_w *. Time.to_sec_f (now - rs.rs_seg_start)) in
  let others =
    Hashtbl.fold
      (fun (app, cause) j acc ->
        if app = 0 && cause = Idle_floor then acc else (app, cause, j) :: acc)
      rs.rs_cells []
    |> List.sort (fun (a1, c1, _) (a2, c2, _) ->
           compare (a1, cause_rank c1) (a2, cause_rank c2))
  in
  let folded = List.fold_left (fun acc (_, _, j) -> acc +. j) 0.0 others in
  (* The closing idle-floor rows are the exact remainder: folding the rows
     left-to-right then lands on [total] bit-for-bit. One subtraction is
     not always enough — when [folded +. (total -. folded)] falls exactly
     half-way between [total] and a neighbour, round-to-even can send it
     one ulp away and no single double closes the gap. The second-order
     term always does: [s = folded +. r1] is within one ulp of [total], so
     [total -. s] is exact (Sterbenz) and [s +. dust = total] exactly. The
     dust row is omitted when it is zero, which is the common case. *)
  let r1 = total -. folded in
  let dust = total -. (folded +. r1) in
  List.map
    (fun (app, cause, j) ->
      { r_app = app; r_cause = cause; r_j = j; r_residual = false })
    others
  @ { r_app = 0; r_cause = Idle_floor; r_j = r1; r_residual = true }
    :: (if dust = 0.0 then []
        else [ { r_app = 0; r_cause = Idle_floor; r_j = dust; r_residual = true } ])

let residue a ~rail =
  let rs = rail_state a ~rail in
  let rws = rows a ~rail in
  let res =
    List.fold_left
      (fun acc r -> if r.r_residual then acc +. r.r_j else acc)
      0.0 rws
  in
  let acc =
    match Hashtbl.find_opt rs.rs_cells (0, Idle_floor) with
    | Some x -> x
    | None -> 0.0
  in
  res -. acc

let app_blame a ~app =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun rail ->
      List.iter
        (fun r ->
          if r.r_app = app then begin
            let cur =
              match Hashtbl.find_opt tbl r.r_cause with Some x -> x | None -> 0.0
            in
            Hashtbl.replace tbl r.r_cause (cur +. r.r_j)
          end)
        (rows a ~rail))
    (rails a);
  List.filter_map
    (fun c ->
      match Hashtbl.find_opt tbl c with
      | Some j when j <> 0.0 -> Some (c, j)
      | _ -> None)
    all_causes

let bits = Int64.bits_of_float

let check a =
  List.fold_left
    (fun acc rail ->
      match acc with
      | Error _ -> acc
      | Ok () ->
          let folded =
            List.fold_left (fun s r -> s +. r.r_j) 0.0 (rows a ~rail)
          in
          let attributed = rail_total a ~rail in
          let ledger = System.rail_energy_j a.a_sys ~name:rail in
          if bits folded <> bits attributed then
            Error
              (Printf.sprintf
                 "rail %s: folded rows %.17g <> attributed total %.17g" rail
                 folded attributed)
          else if bits attributed <> bits ledger then
            Error
              (Printf.sprintf
                 "rail %s: attributed total %.17g <> kernel ledger %.17g" rail
                 attributed ledger)
          else Ok ())
    (Ok ()) (rails a)

(* ---- reports ------------------------------------------------------- *)

let sanitize s =
  String.map (fun c -> match c with ';' | ' ' | '\t' -> '_' | c -> c) s

let app_label sys app =
  if app = 0 then "system"
  else
    match System.app_by_id sys app with
    | Some a -> Printf.sprintf "app%d_%s" app (sanitize a.System.app_name)
    | None -> Printf.sprintf "app%d" app

let write_report fmt =
  Format.fprintf fmt "# psbox joule audit: per-app per-cause attribution@\n";
  Format.fprintf fmt
    "# rows fold top to bottom per rail; audit-check verifies@\n";
  Format.fprintf fmt "# fold(rows) == attributed == ledger, bit-for-bit.@\n";
  List.iter
    (fun a ->
      let sys = a.a_sys in
      Format.fprintf fmt "system %d t=%d@\n" (System.uid sys) (System.now sys);
      List.iter
        (fun rail ->
          let sub = subsystem a ~rail in
          Format.fprintf fmt "rail %s subsystem %s@\n" rail sub;
          List.iter
            (fun r ->
              Format.fprintf fmt "row %s %d %s %s %.17g%s@\n" rail r.r_app sub
                (cause_label r.r_cause) r.r_j
                (if r.r_residual then " residual" else ""))
            (rows a ~rail);
          Format.fprintf fmt
            "railsum %s attributed=%.17g ledger=%.17g residue=%g@\n" rail
            (rail_total a ~rail)
            (System.rail_energy_j sys ~name:rail)
            (residue a ~rail))
        (rails a);
      List.iter
        (fun (app : System.app) ->
          match app_blame a ~app:app.System.app_id with
          | [] -> ()
          | blame ->
              Format.fprintf fmt "# app %d (%s):" app.System.app_id
                app.System.app_name;
              List.iter
                (fun (c, j) ->
                  Format.fprintf fmt " %s=%.4gJ" (cause_label c) j)
                blame;
              Format.fprintf fmt "@\n")
        (System.apps sys))
    (instances ())

let write_flame fmt =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun a ->
      List.iter
        (fun rail ->
          let sub = subsystem a ~rail in
          List.iter
            (fun r ->
              let key =
                Printf.sprintf "%s;%s;%s;%s" rail
                  (app_label a.a_sys r.r_app)
                  sub
                  (cause_label r.r_cause)
              in
              let cur =
                match Hashtbl.find_opt tbl key with Some x -> x | None -> 0.0
              in
              Hashtbl.replace tbl key (cur +. r.r_j))
            (rows a ~rail))
        (rails a))
    (instances ());
  Hashtbl.fold (fun k j acc -> (k, j) :: acc) tbl []
  |> List.sort compare
  |> List.iter (fun (k, j) ->
         let uj = Float.round (j *. 1e6) in
         if uj > 0.0 then Format.fprintf fmt "%s %.0f@\n" k uj)
