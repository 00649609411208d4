open Psbox_engine
module Tm = Psbox_telemetry.Metrics
module Tt = Psbox_telemetry.Tracing

(* Telemetry track/lane naming: each per-core scheduling timeline is a lane
   of the "kernel.cfs" track; span names are the paper's app identities. *)
let cfs_track = "kernel.cfs"

let app_label = function
  | -1 -> "idle"
  | -2 -> "forced-idle"
  | a -> "app" ^ string_of_int a

let pp_span_tag fmt (core, app) =
  Format.fprintf fmt "(core %d, %s)" core (app_label app)

type config = {
  tick : Time.span;
  wakeup_granularity : float;
  ipi_delay : Time.span;
  max_loan : float;
      (* a single coscheduling period ends once any core's loan exceeds
         this much vruntime: a balloon whose entity keeps the best credit
         on one core must still not starve waiters on the others *)
  max_period : Time.span;
      (* hard bound on one coscheduling period; re-entry is immediate if
         the balloon still holds the best credit, so this only bounds how
         stale the loan bookkeeping can get *)
  confine_cost : bool;
      (* the paper's key design: bill balloon-forced idle to the sandboxed
         app and settle scheduling loans. Disable only for the ablation
         bench, which shows unsandboxed apps losing their share without
         it. *)
  quota_period : Time.span;
      (* CFS-bandwidth style refill period for per-app CPU quotas; a
         throttled app stays off the runqueues until the next refill *)
}

let default_config =
  {
    tick = Time.ms 1;
    wakeup_granularity = 1e6;
    ipi_delay = Time.us 5;
    max_loan = 2e7;
    max_period = Time.ms 20;
    confine_cost = true;
    quota_period = Time.ms 10;
  }

type share_change = { at : Time.t; app : int; share : float }

type quota_state = {
  mutable q_limit : float; (* core-seconds of runtime per second, >= 0 *)
  mutable q_used : Time.span; (* runtime consumed in the current period *)
  mutable q_throttled : bool;
  mutable q_event : Sim.handle; (* analytic quota-crossing wakeup *)
}

type balloon = {
  b_app : int;
  b_entities : Entity.t array;
  mutable b_live : bool;
  mutable b_started : Time.t;
  mutable b_joined : int;
  mutable b_metering : bool;
  mutable b_intervals : (Time.t * Time.t) list; (* newest first *)
  mutable b_on_start : unit -> unit;
  mutable b_on_stop : unit -> unit;
  mutable b_total_loan : float;
}

type t = {
  sim : Sim.t;
  cpu : Psbox_hw.Cpu.t;
  cfg : config;
  rqs : Cfs.t array;
  curr_started : Time.t array;
  dispatched : Time.t array;
      (* when the core's current entity won the CPU (unlike [curr_started]
         this does not advance on accounting updates); dispatched + tick is
         the minimum quantum before a planned preemption/rotation, which is
         the role the tick grid played in the polling scheduler *)
  work_events : Sim.handle array;
  plan_events : Sim.handle array;
      (* per-core demand wakeup: the analytically-computed next interesting
         instant (vruntime crossing / idle pickup / balloon inner rotation)
         replaces the seed's blind per-core 1 ms tick *)
  mutable balloon_event : Sim.handle;
      (* single machine-wide wakeup at the live balloon's next boundary:
         min(max_period expiry, earliest loan-cap crossing, the instant the
         balloon loses the credit race on its last winning core) *)
  span_tag : int option array; (* app code of the open trace span per core *)
  task_entities : (int, Entity.t) Hashtbl.t; (* tid -> entity when unsandboxed *)
  apps : (int, Task.t list ref) Hashtbl.t;
  mutable balloons : balloon list;
  mutable live : balloon option;
  trace : (int * int) Trace.spans;
  latencies : (int * float) Trace.events; (* (app, wake-to-run us) *)
  mutable on_task_exit : Task.t -> unit;
  mutable stopped : bool;
  share_bus : share_change Bus.t;
  share_counts : (int, int) Hashtbl.t; (* app -> cores currently running it *)
  quotas : (int, quota_state) Hashtbl.t;
  mutable quota_epoch : Time.t option;
      (* grid anchor for refill boundaries (epoch + k * quota_period), fixed
         by the first quota ever set so demand-armed refills land on the
         same instants a periodic timer would have *)
  mutable quota_next : Sim.handle; (* armed refill boundary, if any *)
  (* telemetry handles, resolved once at create; lanes precomputed so the
     tracing hot path allocates nothing when recording is off *)
  tm_switch : Tm.counter;
  tm_core_switch : Tm.counter array;
  tm_throttles : Tm.counter;
  tm_unthrottles : Tm.counter;
  tm_wake_lat : Tm.histogram;
  tm_lanes : string array;
  (* demand-wakeup fire counters, pre-resolved (these are hot one-shots,
     so the per-call ?label lookup of Sim.schedule_at is avoided) *)
  tm_ev_preempt : Tm.counter;
  tm_ev_rotate : Tm.counter;
  tm_ev_balloon : Tm.counter;
  tm_ev_quota : Tm.counter;
  tm_ev_refill : Tm.counter;
}

let create sim cpu ?(config = default_config) () =
  let n = Psbox_hw.Cpu.cores cpu in
  let retention =
    Timeline.retention (Psbox_hw.Power_rail.timeline (Psbox_hw.Cpu.rail cpu))
  in
  {
    sim;
    cpu;
    cfg = config;
    rqs = Array.init n (fun core -> Cfs.create ~core);
    curr_started = Array.make n Time.zero;
    dispatched = Array.make n Time.zero;
    work_events = Array.make n Sim.none;
    plan_events = Array.make n Sim.none;
    balloon_event = Sim.none;
    span_tag = Array.make n None;
    task_entities = Hashtbl.create 64;
    apps = Hashtbl.create 16;
    balloons = [];
    live = None;
    trace = Trace.spans ?retention ();
    latencies = Trace.events ?retention ();
    on_task_exit = (fun _ -> ());
    stopped = false;
    share_bus = Bus.create ();
    share_counts = Hashtbl.create 16;
    quotas = Hashtbl.create 8;
    quota_epoch = None;
    quota_next = Sim.none;
    tm_switch = Tm.counter "smp.ctx_switches";
    tm_core_switch =
      Array.init n (fun core ->
          Tm.counter (Printf.sprintf "smp.core%d.ctx_switches" core));
    tm_throttles = Tm.counter "smp.throttles";
    tm_unthrottles = Tm.counter "smp.unthrottles";
    tm_wake_lat =
      Tm.histogram "smp.wakeup_latency_us"
        ~edges:[| 1.; 10.; 100.; 1_000.; 10_000. |];
    tm_lanes = Array.init n (Printf.sprintf "core%d");
    tm_ev_preempt = Tm.counter "sim.events.smp.preempt";
    tm_ev_rotate = Tm.counter "sim.events.smp.rotate";
    tm_ev_balloon = Tm.counter "sim.events.smp.balloon_boundary";
    tm_ev_quota = Tm.counter "sim.events.smp.quota_enforce";
    tm_ev_refill = Tm.counter "sim.events.smp.quota_refill";
  }

let cpu smp = smp.cpu
let cores smp = Array.length smp.rqs
let set_on_task_exit smp f = smp.on_task_exit <- f

let app_tasks smp ~app =
  match Hashtbl.find_opt smp.apps app with Some l -> !l | None -> []

let sched_trace smp = smp.trace
let wakeup_latencies_us smp =
  Array.of_list (List.map snd (Trace.values smp.latencies))

let wakeup_latencies_of smp ~app =
  Trace.values smp.latencies
  |> List.filter_map (fun (a, l) -> if a = app then Some l else None)
  |> Array.of_list

let balloon_of_app smp app =
  List.find_opt (fun b -> b.b_app = app) smp.balloons

(* The task actually executing inside an entity, if any. *)
let running_task_of e =
  match e.Entity.kind with
  | Entity.ETask t -> if t.Task.state = Task.Running then Some t else None
  | Entity.EGroup g -> g.Entity.gcurr

let running_app smp ~core =
  match Cfs.curr smp.rqs.(core) with
  | None -> None
  | Some e -> (
      match running_task_of e with Some t -> Some t.Task.app | None -> None)

(* ------------------------------------------------------------------ *)
(* Trace spans                                                          *)

let share_bus smp = smp.share_bus

(* Forward hook into the quota planner (defined at the end of the module):
   an app's running-core count is the rate at which its quota drains, so
   every share change must re-aim the app's quota-crossing wakeup. *)
let quota_share_hook : (t -> int -> unit) ref = ref (fun _ _ -> ())

(* Running-core counts feed the share bus (live attribution): the idle
   tags (-1 / -2) never count, so a balloon-forced-idle core contributes
   no CPU share. Publishing is near-free when nothing subscribes. *)
let note_share smp app delta =
  if app >= 0 then begin
    let cur =
      match Hashtbl.find_opt smp.share_counts app with Some c -> c | None -> 0
    in
    let nw = cur + delta in
    Hashtbl.replace smp.share_counts app nw;
    Bus.publish smp.share_bus
      { at = Sim.now smp.sim; app; share = float_of_int nw };
    if Hashtbl.mem smp.quotas app then !quota_share_hook smp app
  end

let shares_of smp app =
  match Hashtbl.find_opt smp.share_counts app with Some c -> c | None -> 0

let set_span smp core tag =
  let now = Sim.now smp.sim in
  match (smp.span_tag.(core), tag) with
  | Some a, Some b when a = b -> ()
  | old, _ ->
      (match old with
      | Some a ->
          (if Tt.recording () then
             match Trace.open_since smp.trace (core, a) with
             | Some t0 ->
                 Tt.span ~track:cfs_track ~lane:smp.tm_lanes.(core)
                   ~name:(app_label a) ~start:t0 ~stop:now ()
             | None -> ());
          Trace.close_span ~pp:pp_span_tag smp.trace now (core, a);
          note_share smp a (-1)
      | None -> ());
      (match tag with
      | Some b ->
          Trace.open_span smp.trace now (core, b);
          note_share smp b 1
      | None -> ());
      Tm.incr smp.tm_switch;
      Tm.incr smp.tm_core_switch.(core);
      smp.span_tag.(core) <- tag

(* ------------------------------------------------------------------ *)
(* Core scheduling machinery                                           *)

(* Physical identity between the rq's current entity and [e]. *)
let curr_is rq e =
  match Cfs.curr rq with Some c -> c == e | None -> false

let cancel_work smp core =
  Sim.cancel smp.sim smp.work_events.(core);
  smp.work_events.(core) <- Sim.none

(* Per-app CPU quota (CFS-bandwidth style). Only plain task entities are
   throttled: balloon groups answer to the psbox coscheduling machinery,
   not to the budget controller. *)
let throttled_app smp app =
  match Hashtbl.find_opt smp.quotas app with
  | Some q -> q.q_throttled
  | None -> false

let entity_throttled smp e =
  match e.Entity.kind with
  | Entity.ETask t -> throttled_app smp t.Task.app
  | Entity.EGroup _ -> false

let update_curr smp core =
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | None -> ()
  | Some e ->
      let now = Sim.now smp.sim in
      let delta = now - smp.curr_started.(core) in
      if delta > 0 then begin
        let forced_idle =
          match e.Entity.kind with
          | Entity.EGroup g -> g.Entity.gcurr = None
          | Entity.ETask _ -> false
        in
        if smp.cfg.confine_cost || not forced_idle then Cfs.charge rq e delta;
        (match running_task_of e with
        | Some t -> (
            t.Task.remaining <- t.Task.remaining - delta;
            match Hashtbl.find_opt smp.quotas t.Task.app with
            | Some q -> q.q_used <- q.q_used + delta
            | None -> ())
        | None -> ());
        smp.curr_started.(core) <- now
      end

(* ------------------------------------------------------------------ *)
(* Demand-driven wakeup planning                                        *)

(* Analytic plans aim a wakeup at a vruntime crossing computed in floats;
   anything projected further out than this horizon is re-checked at the
   horizon instead (the fire handler verifies against live state and
   re-arms, so a clamped plan is never wrong, only re-derived). *)
let plan_horizon = Time.sec 60

let cancel_plan smp core =
  Sim.cancel smp.sim smp.plan_events.(core);
  smp.plan_events.(core) <- Sim.none

let cancel_balloon_event smp =
  Sim.cancel smp.sim smp.balloon_event;
  smp.balloon_event <- Sim.none

(* Projected vruntime of the core's current entity at the present instant,
   without touching the accounting ([update_curr] materialises the same
   quantity when the wakeup actually fires). *)
let curr_vruntime_now smp core e =
  let delta = Sim.now smp.sim - smp.curr_started.(core) in
  let charging =
    match e.Entity.kind with
    | Entity.EGroup g -> smp.cfg.confine_cost || g.Entity.gcurr <> None
    | Entity.ETask _ -> true
  in
  if delta <= 0 || not charging then e.Entity.vruntime
  else
    e.Entity.vruntime
    +. (float_of_int delta *. Cfs.nice0_weight /. e.Entity.weight)

(* Nanoseconds until a charged entity's vruntime grows by [dv], clamped to
   the planning horizon. *)
let ns_until_dv ~weight dv =
  if dv <= 0.0 then 0
  else
    let dt = dv *. weight /. Cfs.nice0_weight in
    if Float.is_finite dt && dt < float_of_int plan_horizon then
      int_of_float dt + 1
    else plan_horizon

let put_prev smp core =
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | None -> ()
  | Some e ->
      cancel_work smp core;
      (match running_task_of e with
      | Some t -> if t.Task.state = Task.Running then t.Task.state <- Task.Runnable
      | None -> ());
      (match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.gcurr <- None
      | Entity.ETask _ -> ());
      Cfs.set_curr rq None;
      if Entity.runnable e && not (entity_throttled smp e) then Cfs.enqueue rq e;
      Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
      set_span smp core None

(* Program advancement: drive a task's program until it yields an action
   that leaves the CPU or new work to run. Returns [`Runs] if the task has
   fresh work and should keep the CPU. *)
let rec advance smp t fuel =
  if fuel <= 0 then failwith "Smp: task program made no progress (10k steps)";
  match t.Task.program () with
  | Task.Run s -> if s <= 0 then advance smp t (fuel - 1) else (t.Task.remaining <- s; `Runs)
  | Task.Yield ->
      t.Task.remaining <- 0;
      `Off
  | Task.Block ->
      if t.Task.wake_pending then begin
        t.Task.wake_pending <- false;
        advance smp t (fuel - 1)
      end
      else begin
        t.Task.state <- Task.Blocked;
        `Off
      end
  | Task.Sleep s ->
      t.Task.state <- Task.Blocked;
      let smp' = smp in
      ignore (Sim.schedule_after smp.sim s (fun () -> wake_ref smp' t));
      `Off
  | Task.Exit ->
      t.Task.state <- Task.Exited;
      `Off

and wake_ref smp t = !wake_impl smp t
and wake_impl : (t -> Task.t -> unit) ref = ref (fun _ _ -> assert false)

let record_latency smp t =
  if t.Task.last_wake >= 0 then begin
    let lat = Time.to_us_f (Sim.now smp.sim - t.Task.last_wake) in
    Trace.emit smp.latencies (Sim.now smp.sim) (t.Task.app, lat);
    Tm.observe smp.tm_wake_lat lat;
    t.Task.last_wake <- -1
  end

(* ------------------------------------------------------------------ *)
(* Dispatch                                                             *)

let rec schedule_work smp core t =
  cancel_work smp core;
  let span = max 0 t.Task.remaining in
  smp.work_events.(core) <- Sim.schedule_after smp.sim span (fun () -> work_fired smp core)

and work_fired smp core =
  smp.work_events.(core) <- Sim.none;
  update_curr smp core;
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | None -> ()
  | Some e -> (
      match running_task_of e with
      | Some t when t.Task.remaining <= 0 -> (
          match advance smp t 10_000 with
          | `Runs -> schedule_work smp core t
          | `Off ->
              if t.Task.state = Task.Exited then reap smp t;
              resched smp core)
      | Some _ | None -> ())

and reap smp t =
  (* Remove an exited task from its app roster and any group. *)
  (match Hashtbl.find_opt smp.apps t.Task.app with
  | Some l -> l := List.filter (fun t' -> t'.Task.tid <> t.Task.tid) !l
  | None -> ());
  (match balloon_of_app smp t.Task.app with
  | Some b ->
      Array.iter
        (fun e ->
          match e.Entity.kind with
          | Entity.EGroup g ->
              g.Entity.gtasks <-
                List.filter (fun t' -> t'.Task.tid <> t.Task.tid) g.Entity.gtasks
          | Entity.ETask _ -> ())
        b.b_entities
  | None -> Hashtbl.remove smp.task_entities t.Task.tid);
  smp.on_task_exit t

and start_task smp core t =
  t.Task.state <- Task.Running;
  t.Task.core <- core;
  record_latency smp t;
  Psbox_hw.Cpu.set_core_busy smp.cpu ~core true;
  set_span smp core (Some t.Task.app);
  schedule_work smp core t

and run smp core next =
  do_run smp core next;
  (* every dispatch decision changes what the next interesting instant is *)
  replan smp core

and do_run smp core next =
  let rq = smp.rqs.(core) in
  match next with
  | None ->
      Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
      set_span smp core (Some (-1))
  | Some e -> (
      Cfs.dequeue rq e;
      Cfs.set_curr rq (Some e);
      smp.curr_started.(core) <- Sim.now smp.sim;
      smp.dispatched.(core) <- Sim.now smp.sim;
      match e.Entity.kind with
      | Entity.ETask t -> start_task smp core t
      | Entity.EGroup g -> (
          match Entity.group_pick g with
          | Some t ->
              g.Entity.gcurr <- Some t;
              start_task smp core t
          | None ->
              g.Entity.gcurr <- None;
              Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
              set_span smp core (Some (-2));
              (* a balloon whose app has nothing runnable anywhere should
                 not hold the machine idle until the next tick *)
              (match smp.live with
              | Some b when not (Array.exists Entity.runnable b.b_entities) ->
                  ignore
                    (Sim.schedule_after smp.sim 0 (fun () ->
                         if
                           b.b_live
                           && not (Array.exists Entity.runnable b.b_entities)
                         then cosched_out smp b))
              | _ -> ())))

and pick_next smp core =
  match smp.live with
  | Some b -> Some b.b_entities.(core)
  | None -> Cfs.leftmost smp.rqs.(core)

(* Idle-pull load balancing: an idling core steals a waiting task entity
   from a core that is already running something else. Balloon groups are
   never migrated (their cores are fixed by construction). Migration
   re-bases the vruntime on the destination queue, as CFS does. *)
and assigned_load smp core =
  Hashtbl.fold
    (fun _ roster acc ->
      List.fold_left
        (fun acc t ->
          if t.Task.core = core && t.Task.state <> Task.Exited then acc + 1
          else acc)
        acc !roster)
    smp.apps 0

and try_steal smp core =
  match smp.live with
  | Some _ -> None
  | None when smp.balloons <> [] ->
      (* while any app is sandboxed, migrations would scramble the per-core
         loan bookkeeping that keeps coscheduling fair *)
      None
  | None -> (
      let found = ref None in
      let my_load = assigned_load smp core in
      for j = 0 to cores smp - 1 do
        if j <> core && !found = None then begin
          let rqj = smp.rqs.(j) in
          let victim_busy =
            match Cfs.curr rqj with Some _ -> true | None -> false
          in
          (* steal only when it moves the assigned-task counts toward
             balance — a core full of briefly-sleeping tasks is not idle
             capacity, and count drift would clump apps onto one core *)
          if victim_busy && assigned_load smp j >= my_load + 2 then
            List.iter
              (fun e ->
                match e.Entity.kind with
                | Entity.ETask t when Task.is_runnable t && !found = None ->
                    found := Some (j, e, t)
                | Entity.ETask _ | Entity.EGroup _ -> ())
              (Cfs.queued rqj)
        end
      done;
      match !found with
      | Some (j, e, t) ->
          let rqj = smp.rqs.(j) in
          Cfs.dequeue rqj e;
          t.Task.core <- core;
          e.Entity.vruntime <-
            e.Entity.vruntime -. Cfs.min_vruntime rqj
            +. Cfs.min_vruntime smp.rqs.(core);
          t.Task.vruntime <- e.Entity.vruntime;
          Some e
      | None -> None)

and resched smp core =
  update_curr smp core;
  put_prev smp core;
  let next =
    match pick_next smp core with
    | Some e -> Some e
    | None -> try_steal smp core
  in
  (match (next, smp.live) with
  | Some e, None when Entity.is_group e -> (
      match balloon_of_app smp (Entity.app_of e) with
      | Some b -> start_balloon smp core b
      | None -> ())
  | _ -> ());
  run smp core next

(* ------------------------------------------------------------------ *)
(* Spatial balloons                                                     *)

and start_balloon smp core b =
  b.b_live <- true;
  b.b_joined <- 1;
  b.b_metering <- false;
  Array.iter
    (fun e ->
      match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.loan <- 0.0
      | Entity.ETask _ -> ())
    b.b_entities;
  smp.live <- Some b;
  if cores smp = 1 then begin
    b.b_started <- Sim.now smp.sim;
    b.b_metering <- true;
    b.b_on_start ();
    replan_balloon smp b
  end
  else
    for j = 0 to cores smp - 1 do
      if j <> core then
        ignore
          (Sim.schedule_after smp.sim smp.cfg.ipi_delay (fun () ->
               join_balloon smp b j))
    done

and join_balloon smp b j =
  if b.b_live then begin
    update_curr smp j;
    put_prev smp j;
    let e = b.b_entities.(j) in
    (* initial loan: what E_j must borrow to beat the core's best runnable *)
    let best =
      List.find_opt
        (fun e' -> e'.Entity.eid <> e.Entity.eid)
        (Cfs.queued smp.rqs.(j))
    in
    (match (e.Entity.kind, best) with
    | Entity.EGroup g, Some best ->
        g.Entity.loan <-
          Float.max g.Entity.loan
            (Float.max 0.0 (e.Entity.vruntime -. best.Entity.vruntime))
    | _ -> ());
    run smp j (Some e);
    b.b_joined <- b.b_joined + 1;
    if b.b_joined = cores smp then begin
      b.b_started <- Sim.now smp.sim;
      b.b_metering <- true;
      b.b_on_start ();
      replan_balloon smp b
    end
  end

and cosched_out smp ?(local = 0) b =
  cancel_balloon_event smp;
  for i = 0 to cores smp - 1 do
    update_curr smp i
  done;
  (* settle every loan to its exact supremum before redistribution (the
     tick-driven scheduler sampled this at most a tick late) *)
  for i = 0 to cores smp - 1 do
    let e = b.b_entities.(i) in
    let best =
      List.find_opt
        (fun e' -> e'.Entity.eid <> e.Entity.eid)
        (Cfs.queued smp.rqs.(i))
    in
    match (e.Entity.kind, best) with
    | Entity.EGroup g, Some best ->
        g.Entity.loan <-
          Float.max g.Entity.loan (e.Entity.vruntime -. best.Entity.vruntime)
    | _ -> ()
  done;
  b.b_live <- false;
  smp.live <- None;
  if b.b_metering then begin
    b.b_metering <- false;
    b.b_intervals <- (b.b_started, Sim.now smp.sim) :: b.b_intervals;
    if Tt.recording () then
      Tt.span ~track:cfs_track ~lane:"balloon" ~name:(app_label b.b_app)
        ~start:b.b_started ~stop:(Sim.now smp.sim) ();
    b.b_on_stop ()
  end;
  (* loan redistribution: entities evenly split the period's total loan *)
  let groups =
    Array.to_list b.b_entities
    |> List.filter_map (fun e ->
           match e.Entity.kind with
           | Entity.EGroup g -> Some (e, g)
           | Entity.ETask _ -> None)
  in
  let total = List.fold_left (fun acc (_, g) -> acc +. g.Entity.loan) 0.0 groups in
  b.b_total_loan <- b.b_total_loan +. total;
  let n = float_of_int (List.length groups) in
  List.iter
    (fun (e, g) ->
      if smp.cfg.confine_cost then
        e.Entity.vruntime <- e.Entity.vruntime +. ((total /. n) -. g.Entity.loan);
      g.Entity.loan <- 0.0)
    groups;
  (* schedule out everywhere: local core now, remote cores after the IPI *)
  resched smp local;
  for j = 0 to cores smp - 1 do
    if j <> local then
      ignore (Sim.schedule_after smp.sim smp.cfg.ipi_delay (fun () -> resched smp j))
  done

(* Balloon bookkeeping on the designated tick: loan growth and the
   schedule-out condition ("none of {E} has the best credit"). *)
and balloon_tick smp ~local b =
  let n = cores smp in
  let wins = ref 0 in
  for i = 0 to n - 1 do
    let e = b.b_entities.(i) in
    let best =
      List.find_opt (fun e' -> e'.Entity.eid <> e.Entity.eid) (Cfs.queued smp.rqs.(i))
    in
    match best with
    | None -> incr wins
    | Some best ->
        if e.Entity.vruntime <= best.Entity.vruntime then incr wins
        else begin
          match e.Entity.kind with
          | Entity.EGroup g ->
              g.Entity.loan <-
                Float.max g.Entity.loan (e.Entity.vruntime -. best.Entity.vruntime)
          | Entity.ETask _ -> ()
        end
  done;
  let any_runnable = Array.exists Entity.runnable b.b_entities in
  let loan_capped =
    Array.exists
      (fun e ->
        match e.Entity.kind with
        | Entity.EGroup g -> g.Entity.loan > smp.cfg.max_loan
        | Entity.ETask _ -> false)
      b.b_entities
  in
  let over_period = Sim.now smp.sim - b.b_started > smp.cfg.max_period in
  if !wins = 0 || loan_capped || over_period || not any_runnable then
    cosched_out smp ~local b

(* Rotate the inner task of a balloon group when a sibling has less
   vruntime, or start one if the core sits idle with runnable members. *)
and inner_rotate smp core =
  let rq = smp.rqs.(core) in
  match Cfs.curr rq with
  | Some e -> (
      match e.Entity.kind with
      | Entity.EGroup g -> (
          match (g.Entity.gcurr, Entity.group_pick g) with
          | None, Some _ -> resched smp core
          | Some curr_t, Some best when best.Task.tid <> curr_t.Task.tid ->
              resched smp core
          | _ -> ())
      | Entity.ETask _ -> ())
  | None -> ()

(* ------------------------------------------------------------------ *)
(* Demand wakeups (replacing the periodic tick)

   Instead of polling every core every tick, the scheduler computes the
   next instant at which a tick would have acted — a waiter's vruntime
   undercutting the runner's, a balloon boundary, an idle pickup — and
   schedules exactly one event there. Every fire handler re-derives the
   decision from live state before acting (verify-and-re-arm), so a plan
   built from slightly stale projections is never wrong, only re-aimed. *)

and replan smp core =
  match smp.live with
  | Some b when b.b_live ->
      replan_rotate smp core;
      replan_balloon smp b
  | Some _ | None -> replan_core smp core

and replan_core smp core =
  cancel_plan smp core;
  if not smp.stopped then begin
    let rq = smp.rqs.(core) in
    let now = Sim.now smp.sim in
    match (Cfs.curr rq, Cfs.leftmost rq) with
    | None, Some _ ->
        (* idle core with queued work: pick it up this instant (the
           polling scheduler waited for the next tick) *)
        smp.plan_events.(core) <-
          Sim.schedule_at smp.sim now (fun () -> plan_fired smp core)
    | Some c, Some l ->
        (* the instant the waiter's static vruntime undercuts the runner's
           growing one, floored by one tick as the minimum quantum. The
           preemption test is strict, so a tie must re-check >= 1 ns later
           (same-instant re-arms would loop), and a non-charging runner
           (confined group sitting idle) never crosses at all — chain at
           the horizon instead. *)
        let v = curr_vruntime_now smp core c in
        let dv = l.Entity.vruntime -. v in
        let charging =
          match c.Entity.kind with
          | Entity.EGroup g -> smp.cfg.confine_cost || g.Entity.gcurr <> None
          | Entity.ETask _ -> true
        in
        let at =
          if dv < 0.0 then now
          else if not charging then now + plan_horizon
          else now + max 1 (ns_until_dv ~weight:c.Entity.weight dv)
        in
        let at = max at (smp.dispatched.(core) + smp.cfg.tick) in
        smp.plan_events.(core) <-
          Sim.schedule_at smp.sim at (fun () -> plan_fired smp core)
    | (Some _ | None), None -> ()
  end

(* Next inner-rotation instant of a live balloon's group on [core]: the
   earliest crossing between the inner runner's growing vruntime and a
   runnable sibling's static one, floored by one tick. *)
and replan_rotate smp core =
  cancel_plan smp core;
  if not smp.stopped then begin
    let rq = smp.rqs.(core) in
    match Cfs.curr rq with
    | Some { Entity.kind = Entity.EGroup g; _ } -> (
        let now = Sim.now smp.sim in
        match g.Entity.gcurr with
        | None -> (
            match Entity.group_pick g with
            | Some _ ->
                smp.plan_events.(core) <-
                  Sim.schedule_at smp.sim now (fun () -> plan_fired smp core)
            | None -> ())
        | Some t ->
            let delta = now - smp.curr_started.(core) in
            let v =
              if delta <= 0 then t.Task.vruntime
              else
                t.Task.vruntime
                +. (float_of_int delta *. Cfs.nice0_weight /. t.Task.weight)
            in
            let next =
              List.fold_left
                (fun acc t' ->
                  if t'.Task.tid <> t.Task.tid && Task.is_runnable t' then
                    (* [group_pick] breaks vruntime ties by list order, so a
                       tie may keep the current task — re-check >= 1 ns
                       later, never at the same instant *)
                    let dv = t'.Task.vruntime -. v in
                    let at =
                      if dv < 0.0 then now
                      else now + max 1 (ns_until_dv ~weight:t.Task.weight dv)
                    in
                    match acc with
                    | None -> Some at
                    | Some a -> Some (min a at)
                  else acc)
                None g.Entity.gtasks
            in
            (match next with
            | Some at ->
                let at = max at (smp.dispatched.(core) + smp.cfg.tick) in
                smp.plan_events.(core) <-
                  Sim.schedule_at smp.sim at (fun () -> plan_fired smp core)
            | None -> ()))
    | Some _ | None -> ()
  end

and plan_fired smp core =
  smp.plan_events.(core) <- Sim.none;
  if not smp.stopped then begin
    update_curr smp core;
    match smp.live with
    | Some b when b.b_live ->
        Tm.incr smp.tm_ev_rotate;
        inner_rotate smp core;
        (* inner_rotate re-plans through resched/run if it acted *)
        if Sim.is_none smp.plan_events.(core) then replan smp core
    | Some _ | None -> (
        Tm.incr smp.tm_ev_preempt;
        let rq = smp.rqs.(core) in
        match (Cfs.curr rq, Cfs.leftmost rq) with
        | Some c, Some l when l.Entity.vruntime < c.Entity.vruntime ->
            resched smp core
        | None, Some _ -> resched smp core
        | _ -> replan_core smp core)
  end

(* One machine-wide wakeup at the live balloon's next boundary:
   min over (max_period expiry; the earliest loan-cap crossing on any
   core; the latest instant at which the balloon still wins some core's
   credit race — after it, wins = 0). All three are exact projections of
   the conditions [balloon_tick] checks; the fire handler re-evaluates
   them on materialised accounting. *)
and replan_balloon smp b =
  cancel_balloon_event smp;
  if (not smp.stopped) && b.b_live && b.b_metering then begin
    let now = Sim.now smp.sim in
    let at = ref (b.b_started + smp.cfg.max_period + 1) in
    (* running max of per-core win-loss instants; None = some core has no
       waiter, so wins can never reach zero *)
    let lose_all = ref (Some now) in
    for i = 0 to cores smp - 1 do
      let e = b.b_entities.(i) in
      let rq = smp.rqs.(i) in
      let best =
        List.find_opt
          (fun e' -> e'.Entity.eid <> e.Entity.eid)
          (Cfs.queued rq)
      in
      let charging =
        curr_is rq e
        &&
        match e.Entity.kind with
        | Entity.EGroup g -> smp.cfg.confine_cost || g.Entity.gcurr <> None
        | Entity.ETask _ -> true
      in
      let v =
        if curr_is rq e then curr_vruntime_now smp i e else e.Entity.vruntime
      in
      match best with
      | None -> lose_all := None
      | Some best ->
          let dv = best.Entity.vruntime -. v in
          let t_lose =
            if dv < 0.0 then now
            else if charging then
              now + max 1 (ns_until_dv ~weight:e.Entity.weight dv)
            else now + plan_horizon
          in
          (match !lose_all with
          | Some acc -> lose_all := Some (max acc t_lose)
          | None -> ());
          (match e.Entity.kind with
          | Entity.EGroup g ->
              if g.Entity.loan > smp.cfg.max_loan then at := min !at now
              else if charging then begin
                let dv_cap = smp.cfg.max_loan +. best.Entity.vruntime -. v in
                at :=
                  min !at
                    (now + max 1 (ns_until_dv ~weight:e.Entity.weight dv_cap))
              end
          | Entity.ETask _ -> ())
    done;
    (match !lose_all with
    | Some t -> at := min !at (max t now)
    | None -> ());
    let at = min !at (now + plan_horizon) in
    smp.balloon_event <-
      Sim.schedule_at smp.sim (max at now) (fun () -> balloon_fired smp)
  end

and balloon_fired smp =
  smp.balloon_event <- Sim.none;
  if not smp.stopped then
    match smp.live with
    | Some b when b.b_live ->
        Tm.incr smp.tm_ev_balloon;
        for i = 0 to cores smp - 1 do
          update_curr smp i
        done;
        (* If this boundary schedules the balloon out, the [local] core
           rescheds this instant and the rest after the IPI — so hand
           "local" to the core whose waiting competitor has the best
           claim. (The tick-driven scheduler got an equivalent rotation
           for free from its staggered per-core ticks; without this,
           core 0 would always repick first and could restart the same
           balloon forever, starving a competing sandbox.) *)
        let local = ref 0 and best_v = ref infinity in
        for i = 0 to cores smp - 1 do
          let e = b.b_entities.(i) in
          match
            List.find_opt
              (fun e' -> e'.Entity.eid <> e.Entity.eid)
              (Cfs.queued smp.rqs.(i))
          with
          | Some w when w.Entity.vruntime < !best_v ->
              best_v := w.Entity.vruntime;
              local := i
          | Some _ | None -> ()
        done;
        balloon_tick smp ~local:!local b;
        if b.b_live then replan_balloon smp b
    | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Quota enforcement                                                    *)

(* Take an over-quota app off the CPUs: queued entities are removed, cores
   running it reschedule (put_prev's throttle guard keeps them off the
   queue). Sandboxed apps are exempt (see [entity_throttled]). *)
let throttle smp app q =
  Sim.cancel smp.sim q.q_event;
  q.q_event <- Sim.none;
  q.q_throttled <- true;
  Tm.incr smp.tm_throttles;
  if Tt.recording () then
    Tt.instant ~track:cfs_track ~lane:"quota"
      ~name:("throttle " ^ app_label app)
      (Sim.now smp.sim);
  for core = 0 to cores smp - 1 do
    let rq = smp.rqs.(core) in
    List.iter
      (fun e ->
        match e.Entity.kind with
        | Entity.ETask t when t.Task.app = app -> Cfs.dequeue rq e
        | Entity.ETask _ | Entity.EGroup _ -> ())
      (Cfs.queued rq)
  done;
  for core = 0 to cores smp - 1 do
    match running_app smp ~core with
    | Some a when a = app -> resched smp core
    | Some _ | None -> ()
  done

(* ------------------------------------------------------------------ *)
(* Start / stop                                                         *)

let start smp =
  (* no periodic ticks: each core's resched ends in a demand re-plan *)
  for core = 0 to cores smp - 1 do
    resched smp core
  done

let stop smp =
  smp.stopped <- true;
  Array.iter (fun h -> Sim.cancel smp.sim h) smp.plan_events;
  Array.iter (fun h -> Sim.cancel smp.sim h) smp.work_events;
  cancel_balloon_event smp;
  Hashtbl.iter
    (fun _ q ->
      Sim.cancel smp.sim q.q_event;
      q.q_event <- Sim.none)
    smp.quotas;
  Sim.cancel smp.sim smp.quota_next;
  smp.quota_next <- Sim.none;
  (match smp.live with Some b -> cosched_out smp b | None -> ());
  Trace.close_all smp.trace (Sim.now smp.sim)

(* ------------------------------------------------------------------ *)
(* Wakeups and spawning                                                 *)

let preempt_check smp core e =
  match smp.live with
  | Some b when b.b_live ->
      (* the enqueue changed some core's best waiter: re-aim the balloon
         boundary at the new credit-race geometry *)
      replan_balloon smp b
  | Some _ -> ()
  | None -> (
      let rq = smp.rqs.(core) in
      match Cfs.curr rq with
      | None -> resched smp core
      | Some c ->
          if e.Entity.vruntime +. smp.cfg.wakeup_granularity < c.Entity.vruntime
          then resched smp core
          else
            (* no immediate preemption; the crossing with the new waiter
               still needs a planned wakeup *)
            replan_core smp core)

let wake smp t =
  match t.Task.state with
  | Task.Blocked -> (
      t.Task.state <- Task.Runnable;
      t.Task.last_wake <- Sim.now smp.sim;
      let core = t.Task.core in
      let rq = smp.rqs.(core) in
      match balloon_of_app smp t.Task.app with
      | Some b -> (
          let e = b.b_entities.(core) in
          match smp.live with
          | Some b' when b' == b ->
              (* already forced in; make sure the core picks the waker up,
                 or re-aim the rotation plan at the new runnable member *)
              if curr_is rq e then
                (match e.Entity.kind with
                | Entity.EGroup g ->
                    if g.Entity.gcurr = None then resched smp core
                    else replan smp core
                | Entity.ETask _ -> ())
          | _ ->
              if (not e.Entity.on_rq) && not (curr_is rq e) then begin
                Cfs.place_woken rq e;
                Cfs.enqueue rq e
              end;
              preempt_check smp core e)
      | None ->
          let e = Hashtbl.find smp.task_entities t.Task.tid in
          if throttled_app smp t.Task.app then
            (* stays runnable but off the queue; the next quota refill
               enqueues it *)
            ()
          else begin
            if (not e.Entity.on_rq) && not (curr_is rq e) then begin
              Cfs.place_woken rq e;
              t.Task.vruntime <- e.Entity.vruntime;
              Cfs.enqueue rq e
            end;
            preempt_check smp core e
          end)
  | Task.Running | Task.Runnable -> t.Task.wake_pending <- true
  | Task.Exited -> ()

let () = wake_impl := wake

let spawn smp t =
  let roster =
    match Hashtbl.find_opt smp.apps t.Task.app with
    | Some l -> l
    | None ->
        let l = ref [] in
        Hashtbl.add smp.apps t.Task.app l;
        l
  in
  roster := t :: !roster;
  t.Task.last_wake <- Sim.now smp.sim;
  let core = t.Task.core in
  let rq = smp.rqs.(core) in
  match balloon_of_app smp t.Task.app with
  | Some b -> (
      let e = b.b_entities.(core) in
      (match e.Entity.kind with
      | Entity.EGroup g -> g.Entity.gtasks <- t :: g.Entity.gtasks
      | Entity.ETask _ -> ());
      match smp.live with
      | Some b' when b' == b ->
          (match e.Entity.kind with
          | Entity.EGroup g ->
              if g.Entity.gcurr = None then resched smp core
              else replan smp core
          | Entity.ETask _ -> ())
      | _ ->
          if (not e.Entity.on_rq) && not (curr_is rq e) then begin
            Cfs.place_woken rq e;
            Cfs.enqueue rq e
          end;
          preempt_check smp core e)
  | None ->
      let e = Entity.of_task t in
      Hashtbl.replace smp.task_entities t.Task.tid e;
      Cfs.place_new rq e;
      t.Task.vruntime <- e.Entity.vruntime;
      if not (throttled_app smp t.Task.app) then begin
        Cfs.enqueue rq e;
        preempt_check smp core e
      end

(* ------------------------------------------------------------------ *)
(* Quota API                                                            *)

let unthrottle smp app q =
  q.q_throttled <- false;
  Tm.incr smp.tm_unthrottles;
  if Tt.recording () then
    Tt.instant ~track:cfs_track ~lane:"quota"
      ~name:("unthrottle " ^ app_label app)
      (Sim.now smp.sim);
  List.iter
    (fun t ->
      if Task.is_runnable t then
        match Hashtbl.find_opt smp.task_entities t.Task.tid with
        | Some e ->
            let rq = smp.rqs.(t.Task.core) in
            if (not e.Entity.on_rq) && not (curr_is rq e) then begin
              Cfs.place_woken rq e;
              t.Task.vruntime <- e.Entity.vruntime;
              Cfs.enqueue rq e;
              preempt_check smp t.Task.core e
            end
        | None -> ())
    (app_tasks smp ~app)

let quota_refill smp () =
  if not smp.stopped then
    Hashtbl.iter
      (fun app q ->
        q.q_used <- 0;
        if q.q_throttled then unthrottle smp app q)
      smp.quotas

(* The app's quota drains at [running-core-count] core-ns per ns, so the
   projected balance pins the enforcement instant exactly; consumed time
   still inside the cores' accounting windows is folded into the
   projection without materialising it. *)
let quota_used_now smp app q =
  let now = Sim.now smp.sim in
  let extra = ref 0 in
  for core = 0 to cores smp - 1 do
    match running_app smp ~core with
    | Some a when a = app -> extra := !extra + (now - smp.curr_started.(core))
    | Some _ | None -> ()
  done;
  q.q_used + !extra

let rec replan_quota smp app =
  match Hashtbl.find_opt smp.quotas app with
  | None -> ()
  | Some q ->
      Sim.cancel smp.sim q.q_event;
      q.q_event <- Sim.none;
      if
        (not smp.stopped) && (not q.q_throttled)
        && balloon_of_app smp app = None
      then begin
        let ncores = shares_of smp app in
        if ncores > 0 then begin
          let limit_ns = q.q_limit *. float_of_int smp.cfg.quota_period in
          let used_ns = float_of_int (quota_used_now smp app q) in
          let dt =
            if used_ns >= limit_ns then 1
            else begin
              let d = (limit_ns -. used_ns) /. float_of_int ncores in
              if Float.is_finite d && d < float_of_int plan_horizon then
                int_of_float d + 1
              else plan_horizon
            end
          in
          q.q_event <-
            Sim.schedule_after smp.sim dt (fun () -> quota_fired smp app)
        end
      end

and quota_fired smp app =
  match Hashtbl.find_opt smp.quotas app with
  | None -> ()
  | Some q ->
      q.q_event <- Sim.none;
      if not smp.stopped then begin
        Tm.incr smp.tm_ev_quota;
        for core = 0 to cores smp - 1 do
          match running_app smp ~core with
          | Some a when a = app -> update_curr smp core
          | Some _ | None -> ()
        done;
        let in_balloon =
          match smp.live with Some _ -> true | None -> false
        in
        if
          (not in_balloon) && (not q.q_throttled)
          && balloon_of_app smp app = None
          && shares_of smp app > 0
          && Time.to_sec_f q.q_used
             >= q.q_limit *. Time.to_sec_f smp.cfg.quota_period
        then throttle smp app q
        else replan_quota smp app
      end

(* Refill boundaries stay on the epoch grid the first quota pinned, but a
   boundary is only armed while some budgeted app is consuming (or
   throttled); skipped boundaries are exact no-ops — every balance is
   already zero and nothing is waiting. *)
let rec arm_refill smp =
  match smp.quota_epoch with
  | Some epoch when Sim.is_none smp.quota_next && not smp.stopped ->
      let period = smp.cfg.quota_period in
      let k = ((Sim.now smp.sim - epoch) / period) + 1 in
      smp.quota_next <-
        Sim.schedule_at smp.sim
          (epoch + (k * period))
          (fun () -> refill_fired smp)
  | _ -> ()

and refill_fired smp =
  smp.quota_next <- Sim.none;
  if not smp.stopped then begin
    Tm.incr smp.tm_ev_refill;
    quota_refill smp ();
    Hashtbl.iter (fun app _ -> replan_quota smp app) smp.quotas;
    let active =
      Hashtbl.fold
        (fun app _ acc -> acc || shares_of smp app > 0)
        smp.quotas false
    in
    if active then arm_refill smp
  end

(* The grid starts lazily with the first quota, so an unbudgeted machine
   schedules exactly the same events as before this feature. *)
let ensure_quota_tick smp =
  (match smp.quota_epoch with
  | Some _ -> ()
  | None -> smp.quota_epoch <- Some (Sim.now smp.sim));
  arm_refill smp

let () =
  quota_share_hook :=
    fun smp app ->
      replan_quota smp app;
      arm_refill smp

let set_quota smp ~app limit =
  match limit with
  | None -> (
      match Hashtbl.find_opt smp.quotas app with
      | Some q ->
          Sim.cancel smp.sim q.q_event;
          q.q_event <- Sim.none;
          if q.q_throttled then unthrottle smp app q;
          Hashtbl.remove smp.quotas app
      | None -> ())
  | Some l ->
      let l = Float.max 0.0 l in
      (match Hashtbl.find_opt smp.quotas app with
      | Some q -> q.q_limit <- l
      | None ->
          Hashtbl.replace smp.quotas app
            { q_limit = l; q_used = 0; q_throttled = false; q_event = Sim.none });
      ensure_quota_tick smp;
      replan_quota smp app

let quota smp ~app =
  match Hashtbl.find_opt smp.quotas app with
  | Some q -> Some q.q_limit
  | None -> None

let quota_throttled smp ~app = throttled_app smp app

(* ------------------------------------------------------------------ *)
(* Sandbox / unsandbox                                                  *)

let sandbox smp ~app =
  if balloon_of_app smp app <> None then
    invalid_arg "Smp.sandbox: app already sandboxed";
  let n = cores smp in
  let entities = Array.init n (fun core -> Entity.group ~psbox_id:app ~core ()) in
  let b =
    {
      b_app = app;
      b_entities = entities;
      b_live = false;
      b_started = Time.zero;
      b_joined = 0;
      b_metering = false;
      b_intervals = [];
      b_on_start = (fun () -> ());
      b_on_stop = (fun () -> ());
      b_total_loan = 0.0;
    }
  in
  let tasks = app_tasks smp ~app in
  (* pull tasks out of normal scheduling *)
  let touched_cores = ref [] in
  List.iter
    (fun t ->
      let core = t.Task.core in
      (match Hashtbl.find_opt smp.task_entities t.Task.tid with
      | Some e ->
          let rq = smp.rqs.(core) in
          if curr_is rq e then begin
            (* detach the running task's old entity so it cannot be
               requeued alongside the new group entity *)
            touched_cores := core :: !touched_cores;
            cancel_work smp core;
            if t.Task.state = Task.Running then t.Task.state <- Task.Runnable;
            Cfs.set_curr rq None;
            Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
            set_span smp core None
          end
          else Cfs.dequeue rq e;
          Hashtbl.remove smp.task_entities t.Task.tid
      | None -> ());
      match entities.(core).Entity.kind with
      | Entity.EGroup g -> g.Entity.gtasks <- t :: g.Entity.gtasks
      | Entity.ETask _ -> ())
    tasks;
  smp.balloons <- b :: smp.balloons;
  (* fair starting credit: at least the core's min_vruntime, at least the
     average credit of the enclosed tasks *)
  Array.iteri
    (fun core e ->
      let rq = smp.rqs.(core) in
      (match e.Entity.kind with
      | Entity.EGroup g ->
          let ts = g.Entity.gtasks in
          let avg =
            match ts with
            | [] -> 0.0
            | _ ->
                List.fold_left (fun a t -> a +. t.Task.vruntime) 0.0 ts
                /. float_of_int (List.length ts)
          in
          e.Entity.vruntime <- Float.max avg (Cfs.min_vruntime rq)
      | Entity.ETask _ -> ());
      if Entity.runnable e then Cfs.enqueue rq e)
    entities;
  (* cores whose curr was one of the app's tasks must reschedule *)
  List.iter (fun core -> resched smp core) (List.sort_uniq compare !touched_cores);
  (* the group entities just enqueued change every core's next crossing *)
  for core = 0 to cores smp - 1 do
    replan smp core
  done;
  b

let unsandbox smp b =
  if b.b_live then cosched_out smp b;
  smp.balloons <- List.filter (fun b' -> not (b' == b)) smp.balloons;
  let touched = ref [] in
  Array.iteri
    (fun core e ->
      let rq = smp.rqs.(core) in
      if curr_is rq e then begin
        touched := core :: !touched;
        (* detach without requeueing the group *)
        (match running_task_of e with
        | Some t -> if t.Task.state = Task.Running then t.Task.state <- Task.Runnable
        | None -> ());
        (match e.Entity.kind with
        | Entity.EGroup g -> g.Entity.gcurr <- None
        | Entity.ETask _ -> ());
        cancel_work smp core;
        Cfs.set_curr rq None;
        Psbox_hw.Cpu.set_core_busy smp.cpu ~core false;
        set_span smp core None
      end
      else Cfs.dequeue rq e;
      match e.Entity.kind with
      | Entity.EGroup g ->
          List.iter
            (fun t ->
              let te = Entity.of_task t in
              te.Entity.vruntime <- t.Task.vruntime;
              Hashtbl.replace smp.task_entities t.Task.tid te;
              if Task.is_runnable t then begin
                Cfs.place_woken rq te;
                t.Task.vruntime <- te.Entity.vruntime;
                Cfs.enqueue rq te
              end)
            g.Entity.gtasks;
          g.Entity.gtasks <- []
      | Entity.ETask _ -> ())
    b.b_entities;
  List.iter (fun core -> resched smp core) (List.sort_uniq compare !touched);
  for core = 0 to cores smp - 1 do
    replan smp core
  done

let set_balloon_listener b ~on_start ~on_stop =
  b.b_on_start <- on_start;
  b.b_on_stop <- on_stop

let balloon_intervals b = List.rev b.b_intervals
let balloon_live b = b.b_live
let total_loan_issued b = b.b_total_loan

let debug_dump smp =
  let buf = Buffer.create 256 in
  for core = 0 to cores smp - 1 do
    let rq = smp.rqs.(core) in
    Buffer.add_string buf (Printf.sprintf "core%d curr=" core);
    (match Cfs.curr rq with
    | Some e ->
        Buffer.add_string buf
          (Printf.sprintf "eid%d(%s,vrt=%.0f,onrq=%b) " e.Entity.eid
             (match e.Entity.kind with
             | Entity.ETask t -> "task" ^ string_of_int t.Task.tid
             | Entity.EGroup g -> "grp" ^ string_of_int g.Entity.psbox_id)
             e.Entity.vruntime e.Entity.on_rq)
    | None -> Buffer.add_string buf "none ");
    Buffer.add_string buf "q=[";
    List.iter
      (fun e ->
        Buffer.add_string buf
          (Printf.sprintf "eid%d(%s,vrt=%.0f,onrq=%b);" e.Entity.eid
             (match e.Entity.kind with
             | Entity.ETask t -> "task" ^ string_of_int t.Task.tid
             | Entity.EGroup g -> "grp" ^ string_of_int g.Entity.psbox_id)
             e.Entity.vruntime e.Entity.on_rq))
      (Cfs.queued rq);
    Buffer.add_string buf "]\n"
  done;
  Buffer.contents buf
