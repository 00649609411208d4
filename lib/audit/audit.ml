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
let causes = Array.of_list all_causes (* indexed by rank *)
let n_causes = Array.length causes

(* A cell's key: app ids are non-negative, so ordering the keys orders the
   cells by (app, cause rank). *)
let cell_key app rank = (app * n_causes) + rank
let idle_key = cell_key 0 (cause_rank Idle_floor)

(* The floats of a rail's state. A float-only record stores them unboxed;
   in a mixed record every store would box. *)
type energy = {
  floor_w : float;
  mutable cur_w : float; (* draw over the current segment *)
  mutable total_j : float; (* settled, bit-identical to the kernel ledger *)
}

type cell = { mutable j : float }

(* Where a rail has no cell: never credited, never written. *)
let no_cell = { j = 0.0 }

(* Per-rail attribution state. Within one constant-power segment of the
   rail (between two of its transitions), the classification inputs —
   shares, last active app, DVFS index — may change several times; each
   change closes a sub-interval whose energy is billed under the state
   that held *during* it. *)
type rstate = {
  rs_subsystem : string;
  rs_e : energy;
  mutable rs_seg_start : Time.t; (* segment start: mirrors the kernel ledger *)
  mutable rs_mark : Time.t; (* start of the open sub-interval *)
  rs_shares : Shares.t;
  mutable rs_last_active : int; (* lingering blame; 0 until anyone runs *)
  mutable rs_dvfs_index : int; (* as of the open sub-interval *)
  mutable rs_cells : cell array;
      (* [cell_key app rank] -> joules; [no_cell] until first credited *)
  rs_m_rail : Tm.counter;
  rs_audit : t;
      (* the ledger this rail belongs to: the rail's own subscriptions keep
         it alive, since the attach memo holds it only weakly *)
}

and t = {
  a_sys : System.t;
  a_sim : Sim.t; (* the machine's simulator: its store gets the counters *)
  a_rails : (string, rstate) Hashtbl.t;
}

(* All five cause counters resolved at load, indexed by rank — no
   lazily-populated shared memo for concurrent devices to race on. *)
let m_cause =
  Array.map
    (fun c -> Tm.counter ("audit.cause." ^ cause_label c ^ "_j"))
    causes

let cell_at rs key =
  if key < Array.length rs.rs_cells then rs.rs_cells.(key) else no_cell

(* Credit [j] joules to one cell, then to the rail counter, then to the
   cause counter, in the simulator's [store]: the counters' float sums
   depend on that order. *)
let credit store rs app rank j =
  let key = cell_key app rank in
  let c = cell_at rs key in
  if c != no_cell then c.j <- c.j +. j
  else begin
    if key >= Array.length rs.rs_cells then begin
      let a = Array.make (max 16 (2 * key)) no_cell in
      Array.blit rs.rs_cells 0 a 0 (Array.length rs.rs_cells);
      rs.rs_cells <- a
    end;
    rs.rs_cells.(key) <- { j }
  end;
  Tm.add_in store rs.rs_m_rail j;
  Tm.add_in store m_cause.(rank) j

(* Bill the open sub-interval: split the rail's draw into an idle floor and
   a dynamic part, and credit the dynamic part first — to the only app,
   to every app by share (in descending app order), or, with nobody using
   the device, to the last active app as a lingering state (a DVFS
   transition when the governor has not stepped down yet). The parts need
   not sum to the draw bit-exactly: read-time rows re-derive the
   idle-floor remainder against the exact rail total. [Time.to_sec_f] and
   [Float.min] are written out so the floats stay unboxed. *)
let flush rs at =
  if at > rs.rs_mark then begin
    let dt = float_of_int (at - rs.rs_mark) /. 1e9 in
    let e = rs.rs_e in
    let w = e.cur_w in
    if not (w <= 0.0) then begin
      let idle = if e.floor_w > w || w <> w then w else e.floor_w in
      let dyn = w -. idle in
      let store = Sim.metrics rs.rs_audit.a_sim in
      if not (dyn <= 0.0) then begin
        let sh = rs.rs_shares in
        if sh.len = 0 then
          credit store rs rs.rs_last_active
            (cause_rank
               (if rs.rs_dvfs_index > 0 then Dvfs_transition else Lingering))
            (dyn *. dt)
        else if sh.len = 1 then
          credit store rs sh.apps.(0) (cause_rank Active) (dyn *. dt)
        else
          for i = sh.len - 1 downto 0 do
            credit store rs sh.apps.(i) (cause_rank Shared_rail)
              (dyn *. (sh.shares.(i) /. sh.total.sum) *. dt)
          done
      end;
      if idle > 0.0 then
        credit store rs 0 (cause_rank Idle_floor) (idle *. dt)
    end;
    rs.rs_mark <- at
  end

let set_share rs at app share =
  flush rs at;
  Shares.set rs.rs_shares ~app share;
  if share > 0.0 then rs.rs_last_active <- app

(* ---- per-domain switchboard ---------------------------------------- *)

(* Domain-local, like the boot hooks it piggybacks on: a fleet worker
   enabling or attaching audits never touches the main domain's report
   registry or lookup table. *)
type switchboard = {
  mutable sw_on : bool;
  mutable sw_hook : bool;
  mutable sw_report : bool;
  mutable sw_registry : t list; (* strong, newest first *)
  (* machine -> instance, held through the machine: a dead machine's
     binding keeps neither it nor its ledger alive, and goes when the
     table next resizes *)
  sw_live : t System.Side_table.t;
}

let sw_key : switchboard Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      {
        sw_on = false;
        sw_hook = false;
        sw_report = false;
        sw_registry = [];
        sw_live = System.Side_table.create 8;
      })

let sw () = Domain.DLS.get sw_key

let lookup sys = System.Side_table.find_opt (sw ()).sw_live sys

let attach sys =
  match lookup sys with
  | Some a -> a
  | None ->
      let a =
        { a_sys = sys; a_sim = System.sim sys; a_rails = Hashtbl.create 8 }
      in
      let now = System.now sys in
      let add rail subsystem dvfs =
        let name = Power_rail.name rail in
        let rs =
          {
            rs_subsystem = subsystem;
            rs_e =
              {
                floor_w = Power_rail.floor_w rail;
                cur_w = Power_rail.power rail;
                total_j = 0.0;
              };
            rs_seg_start = now;
            rs_mark = now;
            rs_shares = Shares.create ();
            rs_last_active = 0;
            rs_dvfs_index = 0;
            rs_cells = [||];
            rs_m_rail = Tm.counter ("audit.rail." ^ name ^ "_j");
            rs_audit = a;
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
        ignore
          (Bus.subscribe (Power_rail.transitions rail)
             (fun (tr : Power_rail.transition) ->
               flush rs tr.at;
               (* the kernel rail ledger's expression, operand for operand,
                  so the totals stay bit-identical *)
               let e = rs.rs_e in
               e.total_j <-
                 e.total_j
                 +. (e.cur_w *. (float_of_int (tr.at - rs.rs_seg_start) /. 1e9));
               rs.rs_seg_start <- tr.at;
               e.cur_w <- tr.draws.after_w));
        rs
      in
      let cpu = System.cpu sys in
      let cpu_rs =
        add (Psbox_hw.Cpu.rail cpu) "cpu" (Some (Psbox_hw.Cpu.dvfs cpu))
      in
      let follow rs bus =
        ignore
          (Bus.subscribe bus (fun (c : Temporal_sched.share_change) ->
               set_share rs c.at c.app (float_of_int c.share)))
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
      (* "<physical>.app<id>" attribution rails (display, GPS) double as
         share feeds: the app rail's draw is its share of the physical rail,
         and a draw at or below the physical rail's floor is no share (an
         app that has left the GPS idles its rail at the receiver's floor) *)
      if System.has_display sys || System.has_gps sys then
        ignore
          (Bus.subscribe (System.power_bus sys)
             (fun (tr : Power_rail.transition) ->
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
                     when String.length rest > 3 && String.sub rest 0 3 = "app"
                     -> (
                       match
                         int_of_string_opt
                           (String.sub rest 3 (String.length rest - 3))
                       with
                       | Some app ->
                           set_share rs tr.at app
                             (if tr.draws.after_w <= rs.rs_e.floor_w then 0.0
                              else tr.draws.after_w)
                       | None -> ())
                   | _ -> ())));
      let s = sw () in
      System.Side_table.replace s.sw_live sys a;
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

let total_at rs now =
  rs.rs_e.total_j
  +. (rs.rs_e.cur_w *. Time.to_sec_f (now - rs.rs_seg_start))

let rail_total a ~rail = total_at (rail_state a ~rail) (System.now a.a_sys)

let rows a ~rail =
  let rs = rail_state a ~rail in
  let now = System.now a.a_sys in
  flush rs now;
  let total = total_at rs now in
  (* walked down, so the list comes out in key order *)
  let others = ref [] in
  for key = Array.length rs.rs_cells - 1 downto 0 do
    let c = rs.rs_cells.(key) in
    if key <> idle_key && c != no_cell then others := (key, c.j) :: !others
  done;
  let others = !others in
  let folded = List.fold_left (fun acc (_, j) -> acc +. j) 0.0 others in
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
    (fun (key, j) ->
      {
        r_app = key / n_causes;
        r_cause = causes.(key mod n_causes);
        r_j = j;
        r_residual = false;
      })
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
  res -. (cell_at rs idle_key).j

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
